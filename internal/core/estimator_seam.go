package core

import (
	"fmt"
	"math"
)

// Estimator kind tags. The kind travels inside EstimatorState so a
// checkpoint written under one estimator cannot be silently restored
// into another (the learned state is not interchangeable).
const (
	// EstimatorReactive is the paper's estimator: an EWMA over the
	// per-domain hit rates the Web servers report.
	EstimatorReactive = "reactive"
	// EstimatorPredictive is the NS-cache forecasting estimator: the
	// reactive EWMA plus a per-(domain, resolver-class) model of the
	// TTL expirations of the engine's own decisions, used to forecast
	// query arrivals before reports confirm them.
	EstimatorPredictive = "predictive"
)

// EstimatorKinds lists the selectable estimator kinds.
func EstimatorKinds() []string { return []string{EstimatorReactive, EstimatorPredictive} }

// LoadEstimator is the hidden-load estimation seam shared by the
// engine, the simulator's collector, and the live server's report and
// checkpoint paths. The reactive EWMA (Estimator) and the predictive
// NS-cache model (PredictiveEstimator) both implement it; every
// catalog policy runs unmodified on either.
//
// Implementations are not safe for concurrent use; the engine
// serializes all calls behind one mutex. Record and Roll arrive on
// report/collection intervals; the one per-query call is a
// Forecaster's ObserveDecision, which must therefore stay cheap.
type LoadEstimator interface {
	// Kind identifies the implementation (EstimatorReactive, ...).
	Kind() string
	// Record accumulates hits observed from a domain since the last
	// Roll, reporting whether the observation was accepted.
	Record(domain int, hits float64) bool
	// Roll closes the current collection interval of the given length
	// in seconds and folds it into the estimates.
	Roll(intervalSeconds float64)
	// Weights returns the current relative hidden-load weight
	// estimates, normalized to sum to one (uniform before the first
	// Roll).
	Weights() []float64
	// Rates returns a copy of the absolute per-domain demand estimates
	// in hits per second.
	Rates() []float64
	// State captures the serializable soft state for a checkpoint,
	// tagged with the implementation's kind.
	State() EstimatorState
	// Restore replaces the soft state with a checkpointed one. A state
	// of a different kind must be refused with a descriptive error and
	// the estimator left unchanged.
	Restore(EstimatorState) error
}

// Forecaster is the optional capability a LoadEstimator implements
// when it can predict demand from the engine's own TTL handouts. The
// engine type-asserts it once at assembly; the reactive estimator does
// not implement it, so the reactive query path pays only a nil check.
type Forecaster interface {
	// ObserveDecision feeds one scheduling decision: at engine time
	// now the DNS handed a resolver a mapping for domain with the
	// given TTL in seconds.
	ObserveDecision(domain int, now, ttl float64)
	// ForecastRates returns the predicted per-domain demand in hits
	// per second at engine time now.
	ForecastRates(now float64) []float64
	// ForecastError returns the smoothed mean absolute error of the
	// previous intervals' forecasts in hits per second (0 until two
	// rolls have completed).
	ForecastError() float64
}

// NewLoadEstimator builds an estimator of the given kind for the given
// number of domains; an empty kind selects the reactive default.
// alpha is the EWMA weight of the newest interval in (0,1].
func NewLoadEstimator(kind string, domains int, alpha float64) (LoadEstimator, error) {
	switch kind {
	case "", EstimatorReactive:
		return NewEstimator(domains, alpha)
	case EstimatorPredictive:
		return NewPredictiveEstimator(domains, alpha)
	default:
		return nil, fmt.Errorf("core: unknown estimator kind %q (want %s or %s)",
			kind, EstimatorReactive, EstimatorPredictive)
	}
}

// EstimatorState is the serializable soft state of a LoadEstimator:
// everything needed to resume hidden-load estimation after a DNS
// restart instead of resetting the weights to uniform. Kind tags the
// implementation that wrote it (empty means reactive, for checkpoints
// written before kinds existed); the predictive fields are nil/zero in
// reactive states.
//
// The predictive estimator's active mapping windows are deliberately
// NOT part of the state: their expiries are engine seconds, which do
// not survive a restart (the wall-clock epoch moves). Only the learned
// per-mapping rates are carried; windows repopulate from live
// decisions within one TTL.
type EstimatorState struct {
	Kind   string    `json:"kind,omitempty"`
	Alpha  float64   `json:"alpha"`
	Counts []float64 `json:"counts"`
	Rates  []float64 `json:"rates"`
	Rolls  int       `json:"rolls"`

	// Predictive NS-cache model (learned rates only, never windows).
	MapRates    []float64 `json:"map_rates,omitempty"`
	MapRolls    []int     `json:"map_rolls,omitempty"`
	DomRates    []float64 `json:"dom_rates,omitempty"`
	DomRolls    []int     `json:"dom_rolls,omitempty"`
	GlobalRate  float64   `json:"global_rate,omitempty"`
	GlobalRolls int       `json:"global_rolls,omitempty"`
	MeanTTL     float64   `json:"mean_ttl,omitempty"`
	ForecastErr float64   `json:"forecast_err,omitempty"`
}

// ValidateEstimatorState checks the structural invariants every
// estimator state must satisfy regardless of kind: a known kind tag,
// alpha in (0,1], consistent vector lengths, non-negative finite
// values, and non-negative roll counts. Kind-specific shape (domain
// count) is checked by the estimator's Restore.
func ValidateEstimatorState(st EstimatorState) error {
	switch st.Kind {
	case "", EstimatorReactive, EstimatorPredictive:
	default:
		return fmt.Errorf("core: estimator state has unknown kind %q", st.Kind)
	}
	if st.Alpha <= 0 || st.Alpha > 1 || math.IsNaN(st.Alpha) {
		return fmt.Errorf("core: estimator state alpha %v out of (0,1]", st.Alpha)
	}
	if st.Rolls < 0 {
		return fmt.Errorf("core: estimator state has negative roll count %d", st.Rolls)
	}
	if len(st.Counts) != len(st.Rates) {
		return fmt.Errorf("core: estimator state has %d counts but %d rates",
			len(st.Counts), len(st.Rates))
	}
	if err := finiteNonNegative("counts", st.Counts); err != nil {
		return err
	}
	if err := finiteNonNegative("rates", st.Rates); err != nil {
		return err
	}
	if st.Kind != EstimatorPredictive {
		if len(st.MapRates) != 0 || len(st.MapRolls) != 0 || len(st.DomRates) != 0 ||
			len(st.DomRolls) != 0 || st.GlobalRate != 0 || st.GlobalRolls != 0 ||
			st.MeanTTL != 0 || st.ForecastErr != 0 {
			return fmt.Errorf("core: %q estimator state carries predictive fields", st.Kind)
		}
		return nil
	}
	domains := len(st.Counts)
	if len(st.MapRates) != domains*predictiveClasses || len(st.MapRolls) != domains*predictiveClasses {
		return fmt.Errorf("core: predictive state has %d/%d per-mapping entries, want %d",
			len(st.MapRates), len(st.MapRolls), domains*predictiveClasses)
	}
	if len(st.DomRates) != domains || len(st.DomRolls) != domains {
		return fmt.Errorf("core: predictive state has %d/%d per-domain entries, want %d",
			len(st.DomRates), len(st.DomRolls), domains)
	}
	if err := finiteNonNegative("map_rates", st.MapRates); err != nil {
		return err
	}
	if err := finiteNonNegative("dom_rates", st.DomRates); err != nil {
		return err
	}
	for i, n := range st.MapRolls {
		if n < 0 {
			return fmt.Errorf("core: predictive state map_rolls[%d] is %d, want non-negative", i, n)
		}
	}
	for i, n := range st.DomRolls {
		if n < 0 {
			return fmt.Errorf("core: predictive state dom_rolls[%d] is %d, want non-negative", i, n)
		}
	}
	for _, v := range [4]float64{st.GlobalRate, st.MeanTTL, st.ForecastErr, float64(st.GlobalRolls)} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: predictive state scalar %v, want non-negative finite", v)
		}
	}
	return nil
}

func finiteNonNegative(field string, vs []float64) error {
	for i, v := range vs {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: estimator state %s[%d] is %v, want non-negative finite", field, i, v)
		}
	}
	return nil
}
