package core

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestNewLoadEstimatorKinds(t *testing.T) {
	for _, tc := range []struct {
		kind string
		want string
	}{
		{"", EstimatorReactive},
		{EstimatorReactive, EstimatorReactive},
		{EstimatorPredictive, EstimatorPredictive},
	} {
		e, err := NewLoadEstimator(tc.kind, 4, 0.5)
		if err != nil {
			t.Fatalf("NewLoadEstimator(%q): %v", tc.kind, err)
		}
		if e.Kind() != tc.want {
			t.Errorf("NewLoadEstimator(%q).Kind() = %q, want %q", tc.kind, e.Kind(), tc.want)
		}
		if e.State().Kind != tc.want {
			t.Errorf("State().Kind = %q, want %q", e.State().Kind, tc.want)
		}
	}
	if _, err := NewLoadEstimator("bogus", 4, 0.5); err == nil {
		t.Error("unknown kind should error")
	}
	if _, err := NewLoadEstimator(EstimatorPredictive, 0, 0.5); err == nil {
		t.Error("zero domains should error")
	}
	if _, err := NewLoadEstimator(EstimatorPredictive, 4, 1.5); err == nil {
		t.Error("alpha > 1 should error")
	}
}

// Without any observed decisions the predictive estimator must behave
// exactly like the reactive one: the forecast has no mapping evidence,
// so Rates falls back to the reactive EWMA floor.
func TestPredictiveMatchesReactiveWithoutDecisions(t *testing.T) {
	re, _ := NewEstimator(3, 0.5)
	pe, _ := NewPredictiveEstimator(3, 0.5)
	for _, e := range []LoadEstimator{re, pe} {
		e.Record(0, 300)
		e.Record(1, 100)
		e.Roll(10)
		e.Record(1, 50)
		e.Roll(10)
	}
	rr, pr := re.Rates(), pe.Rates()
	for j := range rr {
		if math.Abs(rr[j]-pr[j]) > 1e-12 {
			t.Errorf("rate[%d]: predictive %v, reactive %v", j, pr[j], rr[j])
		}
	}
	rw, pw := re.Weights(), pe.Weights()
	for j := range rw {
		if math.Abs(rw[j]-pw[j]) > 1e-12 {
			t.Errorf("weight[%d]: predictive %v, reactive %v", j, pw[j], rw[j])
		}
	}
}

// TestEstimatorsRefuseOverflow: a pending count or a rate that
// overflows to +Inf would stay infinite in every later EWMA step and
// make the state unwritable as JSON, so both kinds refuse it.
func TestEstimatorsRefuseOverflow(t *testing.T) {
	for _, kind := range EstimatorKinds() {
		e, _ := NewLoadEstimator(kind, 2, 0.5)
		if !e.Record(0, math.MaxFloat64) || e.Record(0, math.MaxFloat64) {
			t.Errorf("%s: a record overflowing the pending count must be refused", kind)
		}
		e.Roll(0.5) // MaxFloat64/0.5 overflows
		if e.State().Rolls != 0 {
			t.Errorf("%s: a roll whose rate overflows must be a no-op", kind)
		}
		e.Roll(1)
		if _, err := json.Marshal(e.State()); e.State().Rolls != 1 || err != nil {
			t.Errorf("%s: after a finite roll: Rolls = %d, marshal error %v", kind, e.State().Rolls, err)
		}
	}
}

func TestPredictiveRecordRejections(t *testing.T) {
	e, _ := NewPredictiveEstimator(2, 0.5)
	if e.Record(-1, 1) || e.Record(2, 1) || e.Record(0, -1) || e.Record(0, math.NaN()) || e.Record(0, math.Inf(1)) {
		t.Error("invalid observations must be rejected")
	}
	if !e.Record(1, 5) {
		t.Error("valid observation must be accepted")
	}
}

// The predictive core loop: learn hits-per-mapping from one steady
// interval, then a decision burst through fresh resolvers must raise
// the forecast immediately — before any report of the new hits.
func TestPredictiveForecastReactsToDecisionBurst(t *testing.T) {
	e, _ := NewPredictiveEstimator(2, 0.5)

	// Steady interval: 2 active mappings on domain 0, 100 hits over
	// 10 s → 5 hits/s per mapping.
	e.ObserveDecision(0, 0, 60)
	e.ObserveDecision(0, 1, 60)
	e.Record(0, 100)
	e.Roll(10)

	base := e.ForecastRates(10)[0]
	if base <= 0 {
		t.Fatalf("forecast after learning = %v, want positive", base)
	}

	// Flash: 20 fresh resolvers request domain 0 at t=12. No report
	// has arrived yet — the reactive EWMA still says 10 hits/s — but
	// the forecast must jump with the active-mapping count.
	for i := 0; i < 20; i++ {
		e.ObserveDecision(0, 12, 60)
	}
	burst := e.ForecastRates(12)[0]
	if burst < 4*base {
		t.Errorf("forecast after 20-mapping burst = %v, want well above base %v", burst, base)
	}
	// The reactive floor is unchanged until the next roll.
	re, _ := NewEstimator(2, 0.5)
	re.Record(0, 100)
	re.Roll(10)
	if got := re.Rates()[0]; burst <= got {
		t.Errorf("predictive burst view %v should exceed reactive view %v", burst, got)
	}
	// Expired mappings stop contributing.
	late := e.ForecastRates(12 + 61)[0]
	if late >= burst {
		t.Errorf("forecast after expiry = %v, want below burst %v", late, burst)
	}
}

func TestPredictiveForecastErrorTracksMisses(t *testing.T) {
	e, _ := NewPredictiveEstimator(1, 0.5)
	e.ObserveDecision(0, 0, 30)
	e.Record(0, 100)
	e.Roll(10)
	if e.ForecastError() != 0 {
		t.Errorf("forecast error before a scored interval = %v, want 0", e.ForecastError())
	}
	// Next interval: forecast said ~10 hits/s, reality is 0.
	e.Roll(10)
	if e.ForecastError() <= 0 {
		t.Errorf("forecast error after a miss = %v, want positive", e.ForecastError())
	}
}

func TestEstimatorKindMismatchRefused(t *testing.T) {
	re, _ := NewEstimator(3, 0.5)
	pe, _ := NewPredictiveEstimator(3, 0.5)
	re.Record(0, 10)
	re.Roll(5)
	pe.Record(1, 20)
	pe.Roll(5)

	if err := pe.Restore(re.State()); err == nil {
		t.Fatal("predictive must refuse a reactive state")
	} else if !strings.Contains(err.Error(), "reactive") {
		t.Errorf("refusal should name the offending kind: %v", err)
	}
	if err := re.Restore(pe.State()); err == nil {
		t.Fatal("reactive must refuse a predictive state")
	} else if !strings.Contains(err.Error(), "predictive") {
		t.Errorf("refusal should name the offending kind: %v", err)
	}
	// Neither refusal corrupted the estimators.
	if got := re.Rates()[0]; got != 2 {
		t.Errorf("reactive rate after refused restore = %v, want 2", got)
	}
	if got := pe.Rates()[1]; got != 4 {
		t.Errorf("predictive rate after refused restore = %v, want 4", got)
	}
	// Legacy untagged states (pre-kind checkpoints) restore into the
	// reactive estimator only.
	legacy := re.State()
	legacy.Kind = ""
	if err := re.Restore(legacy); err != nil {
		t.Errorf("untagged state must restore into reactive: %v", err)
	}
	if err := pe.Restore(legacy); err == nil {
		t.Error("untagged state must not restore into predictive")
	}
}

func TestPredictiveStateRoundTrip(t *testing.T) {
	e, _ := NewPredictiveEstimator(2, 0.5)
	e.ObserveDecision(0, 0, 60)
	e.ObserveDecision(1, 1, 240)
	e.Record(0, 100)
	e.Record(1, 30)
	e.Roll(10)
	e.Record(0, 80)
	st := e.State()

	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var parsed EstimatorState
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatal(err)
	}

	e2, _ := NewPredictiveEstimator(2, 0.5)
	if err := e2.Restore(parsed); err != nil {
		t.Fatal(err)
	}
	if e2.State().Rolls != e.State().Rolls {
		t.Errorf("rolls = %d, want %d", e2.State().Rolls, e.State().Rolls)
	}
	// The reactive base and learned rates survive; the windows do not
	// (engine seconds do not survive a restart), so the restored view
	// equals the EWMA floor.
	r1, r2 := e.rates, e2.rates
	for j := range r1 {
		if r1[j] != r2[j] {
			t.Errorf("base rate %d = %v, want %v", j, r2[j], r1[j])
		}
	}
	if e2.globals != e.globals {
		t.Errorf("global per-mapping rate = %+v, want %+v", e2.globals, e.globals)
	}
	for i := range e.mapRate {
		if e2.mapRate[i] != e.mapRate[i] {
			t.Errorf("map rate %d = %+v, want %+v", i, e2.mapRate[i], e.mapRate[i])
		}
	}
	for _, w := range e2.windows {
		if len(w) != 0 {
			t.Error("restored estimator must start with empty mapping windows")
		}
	}
	// And a fresh decision repopulates forecasting after restore.
	e2.ObserveDecision(0, 5, 60)
	if f := e2.ForecastRates(5)[0]; f <= 0 {
		t.Errorf("forecast after restore + decision = %v, want positive", f)
	}
	// Domain-count mismatch is still refused.
	e3, _ := NewPredictiveEstimator(3, 0.5)
	if err := e3.Restore(parsed); err == nil {
		t.Error("restoring a 2-domain state into a 3-domain estimator should fail")
	}
}

func TestRestoreRefusesMalformedState(t *testing.T) {
	for name, bad := range map[string]string{
		"unknown kind":      `{"kind":"quantum","alpha":0.5,"counts":[0],"rates":[0],"rolls":0}`,
		"alpha zero":        `{"alpha":0,"counts":[0],"rates":[0],"rolls":0}`,
		"alpha above one":   `{"alpha":2,"counts":[0],"rates":[0],"rolls":0}`,
		"negative rolls":    `{"alpha":0.5,"counts":[0],"rates":[0],"rolls":-1}`,
		"length mismatch":   `{"alpha":0.5,"counts":[0,0],"rates":[0],"rolls":0}`,
		"negative rate":     `{"alpha":0.5,"counts":[0],"rates":[-1],"rolls":0}`,
		"reactive with map": `{"kind":"reactive","alpha":0.5,"counts":[0],"rates":[0],"rolls":0,"map_rates":[1,1]}`,
		"predictive short":  `{"kind":"predictive","alpha":0.5,"counts":[0],"rates":[0],"rolls":0,"map_rates":[1]}`,
	} {
		var st EstimatorState
		if err := json.Unmarshal([]byte(bad), &st); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := ValidateEstimatorState(st); err == nil {
			t.Errorf("%s: ValidateEstimatorState should fail", name)
		}
		// Both kinds validate through ValidateEstimatorState, so each
		// refuses the state whatever its kind tag, and stays cold.
		for _, kind := range EstimatorKinds() {
			e, _ := NewLoadEstimator(kind, 1, 0.5)
			if err := e.Restore(st); err == nil {
				t.Errorf("%s: %s estimator restored it", name, kind)
			}
			if got := e.State(); got.Rolls != 0 || got.Rates[0] != 0 {
				t.Errorf("%s: %s estimator not cold after a refused restore: %+v", name, kind, got)
			}
		}
	}
}
