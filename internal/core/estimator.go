package core

import (
	"errors"
	"fmt"
	"math"
)

// Estimator computes the hidden load weight of each connected domain
// from the per-domain request counts that the Web servers report. The
// paper's DNS "periodically collects the information and calculates
// the client request rate from each domain"; Roll models one such
// collection.
//
// Counts are smoothed with an exponentially weighted moving average so
// that a briefly quiet domain does not lose its weight estimate (which
// would hand it an unbounded TTL on its next request).
type Estimator struct {
	domains int
	alpha   float64 // EWMA smoothing factor in (0,1]
	counts  []float64
	rates   []float64
	rolls   int
}

// DefaultEstimatorAlpha is the default EWMA weight of the newest
// estimation interval, the one the simulator and the live DNS server
// both use, so both paths smooth hidden-load reports identically.
const DefaultEstimatorAlpha = 0.5

// NewEstimator creates an estimator for the given number of domains.
// alpha is the EWMA weight given to the newest interval (1 = no
// smoothing).
func NewEstimator(domains int, alpha float64) (*Estimator, error) {
	if domains <= 0 {
		return nil, errors.New("core: estimator needs at least one domain")
	}
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("core: EWMA alpha %v out of (0,1]", alpha)
	}
	return &Estimator{
		domains: domains,
		alpha:   alpha,
		counts:  make([]float64, domains),
		rates:   make([]float64, domains),
	}, nil
}

// Kind identifies the estimator implementation (EstimatorReactive).
func (e *Estimator) Kind() string { return EstimatorReactive }

// Record accumulates hits observed from a domain since the last Roll.
// Servers call this (directly in the simulator, via load reports in
// the real DNS server). It reports whether the observation was
// accepted: out-of-range domains, negative or non-finite hit counts,
// and counts that would overflow the pending sum are rejected so
// callers can count malformed reports instead of losing them silently.
func (e *Estimator) Record(domain int, hits float64) bool {
	if domain < 0 || domain >= e.domains || !validHits(e.counts[domain], hits) {
		return false
	}
	e.counts[domain] += hits
	return true
}

// validHits reports whether hits may join the pending count c: it must
// be non-negative and the sum finite (NaN fails every comparison).
func validHits(c, hits float64) bool { return hits >= 0 && c+hits <= math.MaxFloat64 }

// validInterval reports whether counts may be closed over an interval
// of the given length: it must be positive and finite, and so must
// every resulting rate. A rate that is NaN or infinite once would stay
// so in every later EWMA step.
func validInterval(counts []float64, intervalSeconds float64) bool {
	for _, c := range counts {
		if !(c/intervalSeconds <= math.MaxFloat64) {
			return false
		}
	}
	return intervalSeconds > 0 && intervalSeconds <= math.MaxFloat64
}

// Roll closes the current collection interval of the given length in
// seconds and folds its per-domain rates into the EWMA estimates. An
// interval validInterval refuses is a no-op.
func (e *Estimator) Roll(intervalSeconds float64) {
	if !validInterval(e.counts, intervalSeconds) {
		return
	}
	for j := range e.counts {
		rate := e.counts[j] / intervalSeconds
		if e.rolls == 0 {
			e.rates[j] = rate
		} else {
			e.rates[j] = float64(e.alpha*rate) + float64((1-e.alpha)*e.rates[j])
		}
		e.counts[j] = 0
	}
	e.rolls++
}

// Weights returns the current relative hidden load weight estimates
// (normalized to sum to one). Before the first Roll, or if no traffic
// was ever observed, it returns a uniform vector.
func (e *Estimator) Weights() []float64 {
	out := make([]float64, e.domains)
	var sum float64
	for _, r := range e.rates {
		sum += r
	}
	if e.rolls == 0 || sum <= 0 {
		for j := range out {
			out[j] = 1 / float64(e.domains)
		}
		return out
	}
	for j, r := range e.rates {
		out[j] = r / sum
	}
	return out
}

// Rates returns a copy of the absolute per-domain rate estimates in
// hits per second.
func (e *Estimator) Rates() []float64 {
	out := make([]float64, e.domains)
	copy(out, e.rates)
	return out
}

// State captures the estimator's current internal state for a
// checkpoint.
func (e *Estimator) State() EstimatorState {
	return EstimatorState{
		Kind:   EstimatorReactive,
		Alpha:  e.alpha,
		Counts: append([]float64(nil), e.counts...),
		Rates:  append([]float64(nil), e.rates...),
		Rolls:  e.rolls,
	}
}

// Restore replaces the estimator's internal state with a checkpointed
// one. The checkpoint must carry a matching kind tag (empty means
// reactive, for checkpoints written before kinds existed), pass
// ValidateEstimatorState and match the estimator's domain count; on
// error the estimator is left unchanged (cold-start behavior).
func (e *Estimator) Restore(st EstimatorState) error {
	if st.Kind != "" && st.Kind != EstimatorReactive {
		return fmt.Errorf("core: cannot restore %q estimator state into the reactive estimator; rerun with -estimator=%s or discard the checkpoint",
			st.Kind, st.Kind)
	}
	if err := ValidateEstimatorState(st); err != nil {
		return err
	}
	if len(st.Counts) != e.domains {
		return fmt.Errorf("core: estimator state has %d domains, want %d", len(st.Counts), e.domains)
	}
	copy(e.counts, st.Counts)
	copy(e.rates, st.Rates)
	e.rolls = st.Rolls
	return nil
}
