package simcore

import (
	"math"
	"math/rand/v2"
	"testing"
)

// refStream is Stream as it was written over *rand.Rand: the same seed
// derivation, the draws through the rand.Source interface. Stream must
// equal it draw for draw.
type refStream struct{ rng *rand.Rand }

func newRefStream(seed uint64, name string) refStream {
	h := fnv1a(name)
	return refStream{rand.New(rand.NewPCG(splitmix64(seed^h), splitmix64(h^0x9e3779b97f4a7c15)))}
}

func (r refStream) positive() float64 {
	u := r.rng.Float64()
	for u == 0 {
		u = r.rng.Float64()
	}
	return u
}

func (r refStream) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return -mean * math.Log(r.positive())
}

func (r refStream) UniformInt(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + r.rng.IntN(hi-lo+1)
}

func (r refStream) Geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	n := 1 + int(math.Floor(math.Log(r.positive())/math.Log(1-p)))
	if n < 1 {
		n = 1
	}
	return n
}

// uniformRanges are UniformInt's [lo, hi] cases: powers of two wide
// (the mask), other widths (multiply-shift), and hi <= lo. On 64-bit
// ints the wide ones reach the rejection loop, which 32-bit widths
// almost never enter.
func uniformRanges() [][2]int {
	r := [][2]int{
		{0, 0}, {0, 1}, {-4, 3}, {7, 7 + 1023}, {0, 1<<30 - 1}, // 1, 2, 8, 1024, 2^30 wide
		{5, 15}, {1, 20}, {-3, 999}, {0, 3<<29 - 1}, {-1 << 30, 1<<29 + 12345}, // 11, 20, 1003, 1.5·2^30, 1.5·2^30+12346 wide
		{9, 9}, {9, 3}, // hi <= lo
	}
	if top := math.MaxInt; top > math.MaxInt32 { // 2^63−1; a variable, so 32-bit builds compile the shifts
		r = append(r,
			[2]int{0, top >> 23}, [2]int{-(top >> 2) - 1, top >> 2}, // 2^40, 2^62 wide
			[2]int{0, top/3*2 + 1}, [2]int{-(top >> 1) - 1, top>>2 + 18}, [2]int{0, top - 1}, // ≈2^63·2/3, ≈1.5·2^62, 2^63−1 wide
		)
	}
	return r
}

func TestStreamMatchesMathRand(t *testing.T) {
	ranges := uniformRanges()
	means := []float64{15, 1e-300, 0.5, 1e300, 0, -2}
	geoMeans := []float64{20, 1.5, 1, 0.5, 1e6}
	const draws = 1 << 17 // ×9 streams: over 10^6 draws
	for _, seed := range []uint64{1, 42, 0xdeadbeefcafe} {
		for _, name := range []string{"think", "hits", ""} {
			st, ref := NewStream(seed, name), newRefStream(seed, name)
			order := rand.New(rand.NewPCG(seed, 7)) // which draw comes next
			for i := 0; i < draws; i++ {
				switch k := order.IntN(4); k {
				case 0:
					if got, want := st.Float64(), ref.rng.Float64(); got != want {
						t.Fatalf("seed %d %q draw %d: Float64 = %v, want %v", seed, name, i, got, want)
					}
				case 1:
					r := ranges[order.IntN(len(ranges))]
					if got, want := st.UniformInt(r[0], r[1]), ref.UniformInt(r[0], r[1]); got != want {
						t.Fatalf("seed %d %q draw %d: UniformInt(%d, %d) = %d, want %d", seed, name, i, r[0], r[1], got, want)
					}
				case 2:
					m := means[order.IntN(len(means))]
					if got, want := st.Exp(m), ref.Exp(m); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("seed %d %q draw %d: Exp(%v) = %v, want %v", seed, name, i, m, got, want)
					}
				case 3:
					m := geoMeans[order.IntN(len(geoMeans))]
					if got, want := st.Geometric(m), ref.Geometric(m); got != want {
						t.Fatalf("seed %d %q draw %d: Geometric(%v) = %d, want %d", seed, name, i, m, got, want)
					}
				}
			}
		}
	}
}

func TestExpStreamMatchesStream(t *testing.T) {
	means := []float64{15, 0, 3.5, -1, 1e-300, 1e300, 40}
	for _, seed := range []uint64{1, 99} {
		for _, name := range []string{"think", "flash-think"} {
			s := New(seed)
			e, st := s.ExpStream(name), s.Stream(name)
			for i := 0; i < 5*expBatch+7; i++ { // five refills and part of a sixth
				m := means[i%len(means)]
				if got, want := e.Exp(m), st.Exp(m); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d %q draw %d: ExpStream.Exp(%v) = %v, Stream.Exp = %v", seed, name, i, m, got, want)
				}
			}
		}
	}
}

var drawSink float64

// BenchmarkThinkDraw is one client's think-time draw, Exp(15), from a
// Stream and from an ExpStream.
func BenchmarkThinkDraw(b *testing.B) {
	b.Run("Stream", func(b *testing.B) {
		st := New(1).Stream("think")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			drawSink = st.Exp(15)
		}
	})
	b.Run("ExpStream", func(b *testing.B) {
		e := New(1).ExpStream("think")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			drawSink = e.Exp(15)
		}
	})
}
