// Package stats provides the statistical machinery used by the
// simulation study: online accumulators, empirical distribution
// functions (the paper's "cumulative frequency" curves) and t-based
// confidence intervals over independent replications.
package stats

import (
	"math"
	"sort"
)

// Welford is an online accumulator for mean and variance using
// Welford's algorithm. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance, or 0 with fewer than
// two observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Series is a collection of scalar observations supporting empirical
// CDF queries. Observations are accumulated with Add; insertion order
// is preserved (Values), while CDF queries use a lazily maintained
// sorted copy.
type Series struct {
	xs     []float64 // insertion order
	sorted []float64 // rebuilt lazily for order-statistic queries
}

// NewSeries returns a series with capacity preallocated for n samples.
func NewSeries(n int) *Series {
	return &Series{xs: make([]float64, 0, n)}
}

// Add appends one observation.
func (s *Series) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = nil
}

// Values returns a copy of the observations in insertion order, which
// for time series is temporal order.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

func (s *Series) sort() {
	if s.sorted == nil {
		s.sorted = make([]float64, len(s.xs))
		copy(s.sorted, s.xs)
		sort.Float64s(s.sorted)
	}
}

// CDF returns the empirical cumulative frequency P(X <= x): the
// fraction of observations at or below x. With no observations it
// returns 0.
func (s *Series) CDF(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	// Count of values <= x == index of first value > x.
	i := sort.Search(len(s.sorted), func(i int) bool { return s.sorted[i] > x })
	return float64(i) / float64(len(s.sorted))
}
