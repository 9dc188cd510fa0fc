package simcore

import (
	"math"
	"testing"
)

// TestPureLogMatchesMathLog holds the pure-Go logarithm, which every
// GOARCH but amd64 draws with, to math.Log's amd64 assembly, which the
// goldens were recorded with: bit for bit over 10⁷ uniform PCG draws as
// Exp takes them, the 1-u that Geometric's log(1-p) takes, and the
// special cases. Subnormals are left out: the assembly is off there
// (math.Log(5e-324) reads -709.09, not -744.44), and no draw is one,
// the least being 2⁻⁵³.
func TestPureLogMatchesMathLog(t *testing.T) {
	n := 10_000_000
	if testing.Short() {
		n = 100_000
	}
	st := NewStream(1, "log")
	for i := 0; i < n; i++ {
		u := st.positive()
		for _, x := range [2]float64{u, 1 - u} {
			if got, want := pureLog(x), math.Log(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("draw %d: pureLog(%v) = %v, math.Log = %v", i, x, got, want)
			}
		}
	}
	for _, x := range []float64{0, math.Copysign(0, -1), -1, math.Inf(1), math.Inf(-1), math.NaN(),
		1, 2, 0x1p-53, 0x1p-1022, math.MaxFloat64, math.Sqrt2 / 2, math.E} {
		got, want := pureLog(x), math.Log(x)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("pureLog(%v) = %v, math.Log = %v", x, got, want)
		}
	}
}
