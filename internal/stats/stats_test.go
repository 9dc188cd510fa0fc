package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestWelford(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.N() != 0 {
		t.Error("zero-value Welford should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("N = %d, want 8", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if math.Abs(w.Variance()-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", w.Variance(), 32.0/7)
	}
	if math.Abs(w.StdDev()-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("StdDev = %v", w.StdDev())
	}
}

func TestSeriesCDF(t *testing.T) {
	s := NewSeries(0)
	if got := s.CDF(0.5); got != 0 {
		t.Errorf("empty CDF = %v, want 0", got)
	}
	for _, x := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		s.Add(x)
	}
	tests := []struct {
		x    float64
		want float64
	}{
		{0.05, 0},
		{0.1, 0.1},
		{0.55, 0.5},
		{0.95, 0.9},
		{1.0, 1.0},
		{2.0, 1.0},
	}
	for _, tt := range tests {
		if got := s.CDF(tt.x); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("CDF(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestSeriesValuesPreserveInsertionOrder(t *testing.T) {
	s := NewSeries(0)
	in := []float64{0.9, 0.1, 0.5, 0.3}
	for _, x := range in {
		s.Add(x)
	}
	_ = s.CDF(0.5) // triggers the sorted copy
	got := s.Values()
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("Values()[%d] = %v, want insertion order %v", i, got[i], in[i])
		}
	}
}

func TestSeriesCDFAfterInterleavedAdds(t *testing.T) {
	s := NewSeries(4)
	s.Add(0.9)
	s.Add(0.1)
	if got := s.CDF(0.5); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("CDF(0.5) = %v, want 0.5", got)
	}
	s.Add(0.2) // must re-sort lazily after this
	if got := s.CDF(0.5); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("CDF(0.5) after add = %v, want 2/3", got)
	}
}

func TestCDFQuantileConsistencyProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSeries(len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			s.Add(x)
		}
		// For every p, at least fraction p of mass is <= the
		// nearest-rank p-quantile.
		sorted := s.Values()
		sort.Float64s(sorted)
		for _, p := range []float64{0.1, 0.25, 0.5, 0.9, 0.98} {
			q := sorted[max(int(math.Ceil(p*float64(len(sorted))))-1, 0)]
			if s.CDF(q) < p-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanCI(t *testing.T) {
	iv := MeanCI([]float64{10, 12, 14, 16, 18}, 0.95)
	if math.Abs(iv.Mean-14) > 1e-12 {
		t.Errorf("Mean = %v, want 14", iv.Mean)
	}
	// sd = sqrt(10), se = sqrt(2); t(4, .95) = 2.7764
	wantHW := 2.7764 * math.Sqrt2 * math.Sqrt(10) / math.Sqrt(10)
	_ = wantHW
	se := math.Sqrt(10) / math.Sqrt(5)
	if math.Abs(iv.HalfWide-2.7764*se) > 1e-9 {
		t.Errorf("HalfWide = %v, want %v", iv.HalfWide, 2.7764*se)
	}
	if !(iv.HalfWide > 0) {
		t.Error("interval must straddle the mean")
	}
	if single := MeanCI([]float64{5}, 0.95); !math.IsInf(single.HalfWide, 1) {
		t.Error("single observation should give infinite half-width")
	}
}

func TestMeanCICoverage(t *testing.T) {
	// Empirical coverage check: 95% CI over normal-ish data should
	// contain the true mean in roughly 95% of trials.
	rng := newLCG(12345)
	const trials = 400
	hits := 0
	for tr := 0; tr < trials; tr++ {
		obs := make([]float64, 10)
		for i := range obs {
			// Sum of uniforms approximates a normal with mean 6.
			var sum float64
			for k := 0; k < 12; k++ {
				sum += rng.float64()
			}
			obs[i] = sum
		}
		iv := MeanCI(obs, 0.95)
		if math.Abs(iv.Mean-6) <= iv.HalfWide {
			hits++
		}
	}
	cov := float64(hits) / trials
	if cov < 0.90 || cov > 0.99 {
		t.Errorf("empirical coverage = %v, want ≈ 0.95", cov)
	}
}

func TestTCritical(t *testing.T) {
	tests := []struct {
		df    int
		level float64
		want  float64
	}{
		{1, 0.95, 12.7062},
		{4, 0.95, 2.7764},
		{30, 0.95, 2.0423},
		{1000, 0.95, 1.96},
		{4, 0.90, 2.1318},
		{4, 0.99, 4.6041},
		{1000, 0.90, 1.6449},
		{1000, 0.99, 2.5758},
	}
	for _, tt := range tests {
		if got := tCritical(tt.df, tt.level); math.Abs(got-tt.want) > 1e-4 {
			t.Errorf("tCritical(%d, %v) = %v, want %v", tt.df, tt.level, got, tt.want)
		}
	}
	if !math.IsInf(tCritical(0, 0.95), 1) {
		t.Error("df=0 should be infinite")
	}
}

func TestWindowedMax(t *testing.T) {
	wm := NewWindowedMax(3)
	wm.Observe(0, 0.5)
	wm.Observe(1, 0.7)
	if len(wm.Series().Values()) != 0 {
		t.Error("window closed early")
	}
	wm.Observe(2, 0.6)
	if len(wm.Series().Values()) != 1 {
		t.Fatal("window did not close after all entities reported")
	}
	if got := wm.Series().Values()[0]; got != 0.7 {
		t.Errorf("window max = %v, want 0.7", got)
	}
	// Second window; a duplicate report keeps the max.
	wm.Observe(0, 0.1)
	wm.Observe(0, 0.9)
	wm.Observe(1, 0.2)
	wm.Observe(2, 0.3)
	if got := len(wm.Series().Values()); got != 2 {
		t.Fatalf("Windows = %d, want 2", got)
	}
	if got := wm.Series().Values()[1]; got != 0.9 {
		t.Errorf("duplicate observation should keep larger value, max = %v", got)
	}
	for i, v := range []float64{0.2, 0.25, 0.22} {
		wm.Observe(i, v)
	}
	if got := len(wm.Series().Values()); got != 3 {
		t.Errorf("Windows = %d after a third full window, want 3", got)
	}
	vals := wm.Series().Values()
	sort.Float64s(vals)
	if vals[0] != 0.25 {
		t.Errorf("third window max = %v, want 0.25", vals[0])
	}
	// Out-of-range observations are ignored.
	wm.Observe(-1, 1)
	wm.Observe(3, 1)
	if len(wm.Series().Values()) != 3 {
		t.Error("out-of-range observation affected windows")
	}
}

// newLCG returns a tiny deterministic generator for tests that should
// not depend on the engine's RNG.
type lcg struct{ state uint64 }

func newLCG(seed uint64) *lcg { return &lcg{state: seed} }

func (l *lcg) float64() float64 {
	l.state = l.state*6364136223846793005 + 1442695040888963407
	return float64(l.state>>11) / float64(1<<53)
}
