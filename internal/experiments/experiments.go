// Package experiments defines one runnable experiment per table and
// figure of the paper's evaluation (Section 5), producing the same
// rows/series the paper reports: cumulative-frequency curves of the
// maximum server utilization (Figures 1–2) and Prob(MaxUtilization <
// 0.98) sweeps over heterogeneity, minimum TTL, and estimation error
// (Figures 3–7).
package experiments

import (
	"errors"
	"math"
	"sync"

	"dnslb/internal/sim"
	"dnslb/internal/stats"
)

// Options controls how an experiment is executed.
type Options struct {
	// Duration is the virtual measurement time per run in seconds
	// (paper: 5 h).
	Duration float64
	// Reps is the number of independent replications per point; the
	// reported value is their mean.
	Reps int
	// Seed is the base random seed.
	Seed uint64
	// Workers bounds how many independent simulation runs execute
	// concurrently while producing a figure (line × point fan-out).
	// 0 or 1 keeps the fully sequential path. Parallel execution
	// yields identical numbers: every run is independently seeded and
	// results are assembled in deterministic order.
	Workers int
}

// curvePoints is the number of max-utilization levels the CDF figures
// sample.
const curvePoints = 21

// DefaultOptions reproduces the paper's setup: five simulated hours,
// three replications.
func DefaultOptions() Options {
	return Options{
		Duration: 5 * 3600,
		Reps:     3,
		Seed:     1,
	}
}

func (o Options) validate() error {
	switch {
	case !(o.Duration > 0) || math.IsInf(o.Duration, 1):
		return errors.New("experiments: Duration must be positive and finite")
	case o.Reps <= 0:
		return errors.New("experiments: Reps must be positive")
	}
	return nil
}

// Series is one labelled curve of a figure.
type Series struct {
	Name string
	// Values aligns with the figure's XVals.
	Values []float64
	// HalfWidths are a sweep's 95% confidence half-widths, aligned
	// with Values: zero when Reps < 2, nil for the CDF figures and
	// Table 2.
	HalfWidths []float64
}

// Figure is the reproduced data behind one paper figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	XVals  []float64
	Series []Series
}

// applyOptions copies the experiment options onto a sim config; the
// warm-up stays the simulator's default, which Table 1 reports.
func applyOptions(cfg *sim.Config, o Options) {
	cfg.Duration = o.Duration
	cfg.Seed = o.Seed
}

// runReps executes the point's replications, in parallel when the
// options carry a worker budget. Parallel and sequential replication
// results are identical (see sim.RunReplicationsParallel).
func runReps(cfg sim.Config, o Options) ([]*sim.Result, error) {
	if o.Workers > 1 {
		return sim.RunReplicationsParallel(cfg, o.Reps, o.Workers)
	}
	return sim.RunReplications(cfg, o.Reps)
}

// runCurve returns the mean cumulative-frequency curve of the maximum
// utilization at the given levels over o.Reps replications.
func runCurve(cfg sim.Config, o Options, levels []float64) ([]float64, error) {
	applyOptions(&cfg, o)
	results, err := runReps(cfg, o)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(levels))
	for i, x := range levels {
		var w stats.Welford
		for _, r := range results {
			w.Add(r.ProbMaxUnder(x))
		}
		out[i] = w.Mean()
	}
	return out, nil
}

// forEachLimit runs f(0..n-1) across at most `workers` goroutines and
// returns the lowest-index error, so parallel figure production fails
// the same way the sequential loop would. workers <= 1 (or n == 1)
// keeps the plain sequential loop.
func forEachLimit(n, workers int, f func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// utilizationLevels returns the x axis of the CDF figures.
func utilizationLevels() []float64 {
	const lo, hi = 0.5, 1.0
	out := make([]float64, curvePoints)
	step := (hi - lo) / float64(curvePoints-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}
