package core

import (
	"fmt"
	"math"
)

// predictiveClasses is the number of resolver classes the predictive
// estimator distinguishes. Resolvers are classified by the TTL band of
// the mapping they received (below/above the running mean handed-out
// TTL): under adaptive-TTL policies the TTL encodes the scheduler's
// belief about the requesting domain's hidden load, so the two bands
// separate the heavy-domain resolvers (short TTLs, frequent renewals)
// from the light ones.
const predictiveClasses = 2

// maxTrackedWindows bounds the active-mapping windows tracked per
// (domain, class). When full, a new window replaces the
// soonest-expiring one — the bound trades a little forecast mass at
// extreme decision rates for a hard memory cap. It must fit the uint16
// indices of the soonest-expiry heaps.
const maxTrackedWindows = 512

// meanTTLAlpha smooths the running mean handed-out TTL that splits the
// resolver classes.
const meanTTLAlpha = 0.2

// mappingWindow is one outstanding resolver-cache entry created by a
// scheduling decision: the mapping was handed out at start and can
// drive traffic until expiry (both in engine seconds).
type mappingWindow struct {
	start, expiry float64
}

// ewmaRate is one exponentially smoothed rate estimate with its sample
// count (the first sample initializes instead of averaging).
type ewmaRate struct {
	rate  float64
	rolls int
}

func (r *ewmaRate) fold(sample, alpha float64) {
	if r.rolls == 0 {
		r.rate = sample
	} else {
		r.rate = alpha*sample + (1-alpha)*r.rate
	}
	r.rolls++
}

// PredictiveEstimator is the NS-cache forecasting estimator (ROADMAP
// item 1, inverting Wang's Modeling and Predicting DNS Server Load):
// the DNS knows every TTL it handed out, so it maintains the set of
// resolver-cache entries still alive per (domain, resolver-class) and
// learns, at each collection roll, how many hits one active mapping
// generates per second. Between rolls the forecast
//
//	demand_j(now) = Σ_c  active_jc(now) × perMappingRate_jc
//
// reacts to a decision burst (a flash crowd arriving through fresh
// resolvers) immediately, one to two collection intervals before the
// reactive EWMA sees the hits in a report.
//
// The reactive EWMA is retained as the floor: Rates returns
// max(reactive, forecast) per domain, so the predictive estimator can
// only raise the alarm earlier, never lose the reports' ground truth.
type PredictiveEstimator struct {
	domains int
	alpha   float64

	// Reactive base: identical EWMA over reported hit rates.
	counts []float64
	rates  []float64
	rolls  int

	// NS-cache model. Invariant: every stored window has expiry >
	// lastRoll. Roll prunes every slot right after moving that fence,
	// Restore clears the windows, and ObserveDecision refuses a window
	// born behind it — so nothing else needs to prune.
	meanTTL  float64 // running mean handed-out TTL (class split point)
	ttlObs   int
	windows  [][]mappingWindow // per domain*predictiveClasses+class, in insertion order
	lastNow  float64           // latest engine time observed
	lastRoll float64           // engine time of the last Roll (attribution fence)

	// soonest[dc] is a min-heap of indices into a full windows[dc] by
	// (expiry, index): its top is the window a newcomer replaces. Built
	// when an insert finds the slot full, emptied when prune shrinks it.
	soonest [][]uint16

	mapRate []ewmaRate // learned hits/s per active mapping, per (domain, class)
	domRate []ewmaRate // per-domain fallback
	globals ewmaRate   // global fallback

	prevForecast []float64 // forecast made at the previous roll, for error tracking
	haveForecast bool
	forecastErr  ewmaRate // smoothed mean absolute forecast error, hits/s
}

// NewPredictiveEstimator creates a predictive estimator for the given
// number of domains. alpha is the EWMA weight of the newest interval,
// shared by the reactive base and the learned per-mapping rates.
func NewPredictiveEstimator(domains int, alpha float64) (*PredictiveEstimator, error) {
	if domains <= 0 {
		return nil, fmt.Errorf("core: estimator needs at least one domain")
	}
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("core: EWMA alpha %v out of (0,1]", alpha)
	}
	return &PredictiveEstimator{
		domains: domains,
		alpha:   alpha,
		counts:  make([]float64, domains),
		rates:   make([]float64, domains),
		windows: make([][]mappingWindow, domains*predictiveClasses),
		soonest: make([][]uint16, domains*predictiveClasses),
		mapRate: make([]ewmaRate, domains*predictiveClasses),
		domRate: make([]ewmaRate, domains),
	}, nil
}

// Kind identifies the estimator implementation (EstimatorPredictive).
func (e *PredictiveEstimator) Kind() string { return EstimatorPredictive }

// Record accumulates hits observed from a domain since the last Roll,
// reporting whether the observation was accepted (Estimator.Record's
// rules).
func (e *PredictiveEstimator) Record(domain int, hits float64) bool {
	if domain < 0 || domain >= e.domains || !validHits(e.counts[domain], hits) {
		return false
	}
	e.counts[domain] += hits
	return true
}

// classOf buckets a handed-out TTL into its resolver class using the
// running mean TTL as the split point.
func (e *PredictiveEstimator) classOf(ttl float64) int {
	if e.ttlObs > 0 && ttl > e.meanTTL {
		return 1
	}
	return 0
}

// ObserveDecision feeds one scheduling decision: a resolver received a
// mapping for domain at engine time now with the given TTL. Implements
// Forecaster. This is the one estimator call on the query path: O(1)
// while the slot has room, O(log maxTrackedWindows) and allocation-free
// once it is full. A non-finite time or TTL is refused, and so is a
// window born behind the fence (the clock stepped back past a TTL).
func (e *PredictiveEstimator) ObserveDecision(domain int, now, ttl float64) {
	expiry := now + ttl // NaN or ±Inf when either operand is
	if domain < 0 || domain >= e.domains || ttl <= 0 ||
		math.IsNaN(expiry) || math.IsInf(expiry, 0) || expiry <= e.lastRoll {
		return
	}
	if now > e.lastNow {
		e.lastNow = now
	}
	c := e.classOf(ttl)
	if e.ttlObs == 0 {
		e.meanTTL = ttl
	} else {
		e.meanTTL = meanTTLAlpha*ttl + (1-meanTTLAlpha)*e.meanTTL
	}
	e.ttlObs++

	dc := domain*predictiveClasses + c
	w := e.windows[dc]
	win := mappingWindow{start: now, expiry: expiry}
	if len(w) < maxTrackedWindows {
		e.windows[dc] = append(w, win)
		return
	}
	// Full: replace the soonest-expiring window (the first, on a tie) if
	// the new one lasts longer, keeping the forecast horizon as long as
	// possible — in place, because Roll's float sums run in slice order.
	h := e.soonest[dc]
	if len(h) == 0 { // first full insert since the slot last shrank
		for i := range w {
			h = append(h, uint16(i))
		}
		for i := len(h)/2 - 1; i >= 0; i-- {
			siftSoonest(w, h, i)
		}
		e.soonest[dc] = h
	}
	if top := h[0]; w[top].expiry < expiry {
		w[top] = win
		siftSoonest(w, h, 0)
	}
}

// soonestLess orders window indices a, b of w by (expiry, index).
func soonestLess(w []mappingWindow, a, b uint16) bool {
	return w[a].expiry < w[b].expiry || (w[a].expiry == w[b].expiry && a < b)
}

// siftSoonest restores the heap order of h below position i.
func siftSoonest(w []mappingWindow, h []uint16, i int) {
	for {
		j := 2*i + 1
		if j+1 < len(h) && soonestLess(w, h[j+1], h[j]) {
			j++
		}
		if j >= len(h) || !soonestLess(w, h[j], h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// prune drops windows of (domain, class) slot dc whose mapping-seconds
// the Roll that just moved the fence has attributed. The fence is the
// last roll time, NOT the current time: a short-TTL window that expires
// mid-interval still owes its active seconds to the next Roll's
// attribution — dropping it early would shrink the denominator and
// inflate the learned per-mapping rate for exactly the hot, short-TTL
// domains the forecast matters most for.
func (e *PredictiveEstimator) prune(dc int) {
	w := e.windows[dc]
	keep := w[:0]
	for _, win := range w {
		if win.expiry > e.lastRoll {
			keep = append(keep, win)
		}
	}
	if len(keep) < len(w) {
		e.soonest[dc] = e.soonest[dc][:0] // indices shifted
	}
	e.windows[dc] = keep
}

// Roll closes a collection interval: it folds the reported hits into
// the reactive EWMA exactly like the reactive estimator, then
// attributes the interval's hits to the mappings that were active
// during it to learn the per-mapping rates, and scores the forecast it
// made at the previous roll against what the reports said. An interval
// validInterval refuses is a no-op.
func (e *PredictiveEstimator) Roll(intervalSeconds float64) {
	if !validInterval(e.counts, intervalSeconds) {
		return
	}
	rollNow := e.lastNow
	intervalStart := rollNow - intervalSeconds

	// Score the previous roll's forecast against this interval's truth.
	if e.haveForecast {
		var absErr float64
		for j := 0; j < e.domains; j++ {
			absErr += math.Abs(e.prevForecast[j] - e.counts[j]/intervalSeconds)
		}
		if absErr <= math.MaxFloat64 { // finite errors can sum past it
			e.forecastErr.fold(absErr/float64(e.domains), e.alpha)
		}
	}

	for j := 0; j < e.domains; j++ {
		rate := e.counts[j] / intervalSeconds

		// Active-mapping seconds per class within the closed interval:
		// each tracked window contributes its overlap with
		// [intervalStart, rollNow].
		var classSeconds [predictiveClasses]float64
		var total float64
		for c := 0; c < predictiveClasses; c++ {
			for _, win := range e.windows[j*predictiveClasses+c] {
				lo := math.Max(win.start, intervalStart)
				hi := math.Min(win.expiry, rollNow)
				if hi > lo {
					classSeconds[c] += hi - lo
				}
			}
			total += classSeconds[c]
		}
		if total > 0 {
			hits := e.counts[j]
			// Attribute the domain's hits across classes in proportion
			// to their active-mapping seconds, then learn hits per
			// mapping-second (= hits/s per active mapping).
			perMapSample := hits / total
			for c := 0; c < predictiveClasses; c++ {
				if classSeconds[c] > 0 {
					e.mapRate[j*predictiveClasses+c].fold(perMapSample, e.alpha)
				}
			}
			e.domRate[j].fold(perMapSample, e.alpha)
			e.globals.fold(perMapSample, e.alpha)
		}

		if e.rolls == 0 {
			e.rates[j] = rate
		} else {
			e.rates[j] = e.alpha*rate + (1-e.alpha)*e.rates[j]
		}
		e.counts[j] = 0
	}
	e.rolls++

	// Advance the attribution fence: windows that expired within the
	// closed interval have now contributed their seconds and can go.
	e.lastRoll = rollNow
	for dc := range e.windows {
		e.prune(dc)
	}

	// Record the forecast for the interval that starts now, to score at
	// the next roll.
	e.prevForecast = e.ForecastRates(rollNow)
	e.haveForecast = true
}

// perMappingRate returns the learned hits/s per active mapping for
// (domain, class), falling back from the class estimate to the domain
// estimate to the global one when a level has no data yet.
func (e *PredictiveEstimator) perMappingRate(domain, class int) float64 {
	if r := e.mapRate[domain*predictiveClasses+class]; r.rolls > 0 {
		return r.rate
	}
	if r := e.domRate[domain]; r.rolls > 0 {
		return r.rate
	}
	if e.globals.rolls > 0 {
		return e.globals.rate
	}
	return 0
}

// ForecastRates returns the predicted per-domain demand in hits per
// second at engine time now: active mappings times learned per-mapping
// rate, floored by the reactive EWMA. Implements Forecaster.
func (e *PredictiveEstimator) ForecastRates(now float64) []float64 {
	if now > e.lastNow {
		e.lastNow = now
	}
	out := make([]float64, e.domains)
	for j := 0; j < e.domains; j++ {
		var f float64
		for c := 0; c < predictiveClasses; c++ {
			// Count windows covering now; expired-but-unattributed ones
			// stay stored for the next Roll but carry no current demand.
			var active int
			for _, win := range e.windows[j*predictiveClasses+c] {
				if win.start <= now && now < win.expiry {
					active++
				}
			}
			if active > 0 {
				f += float64(active) * e.perMappingRate(j, c)
			}
		}
		out[j] = math.Max(e.rates[j], f)
	}
	return out
}

// ForecastError returns the smoothed mean absolute error of past
// forecasts in hits/s. Implements Forecaster.
func (e *PredictiveEstimator) ForecastError() float64 { return e.forecastErr.rate }

// Rates returns the current per-domain demand view: the forecast at
// the latest observed engine time (which the reactive EWMA floors).
func (e *PredictiveEstimator) Rates() []float64 { return e.ForecastRates(e.lastNow) }

// Weights returns the forecast demand normalized to sum to one, or a
// uniform vector before the first Roll (matching the reactive
// estimator's cold behavior, so both kinds start identically).
func (e *PredictiveEstimator) Weights() []float64 {
	out := e.Rates()
	var sum float64
	for _, r := range out {
		sum += r
	}
	if e.rolls == 0 || sum <= 0 {
		for j := range out {
			out[j] = 1 / float64(e.domains)
		}
		return out
	}
	for j := range out {
		out[j] /= sum
	}
	return out
}

// State captures the serializable soft state: the reactive base and
// the learned per-mapping rates. The active mapping windows are
// excluded — their expiries are engine seconds, which do not survive a
// restart; they repopulate from live decisions within one TTL.
func (e *PredictiveEstimator) State() EstimatorState {
	st := EstimatorState{
		Kind:        EstimatorPredictive,
		Alpha:       e.alpha,
		Counts:      append([]float64(nil), e.counts...),
		Rates:       append([]float64(nil), e.rates...),
		Rolls:       e.rolls,
		MapRates:    make([]float64, len(e.mapRate)),
		MapRolls:    make([]int, len(e.mapRate)),
		DomRates:    make([]float64, len(e.domRate)),
		DomRolls:    make([]int, len(e.domRate)),
		GlobalRate:  e.globals.rate,
		GlobalRolls: e.globals.rolls,
		MeanTTL:     e.meanTTL,
		ForecastErr: e.forecastErr.rate,
	}
	for i, r := range e.mapRate {
		st.MapRates[i], st.MapRolls[i] = r.rate, r.rolls
	}
	for i, r := range e.domRate {
		st.DomRates[i], st.DomRolls[i] = r.rate, r.rolls
	}
	return st
}

// Restore replaces the soft state with a checkpointed one. A state of
// a different kind is refused with a descriptive error; on any error
// the estimator is left unchanged (cold-start behavior).
func (e *PredictiveEstimator) Restore(st EstimatorState) error {
	if st.Kind != EstimatorPredictive {
		kind := st.Kind
		if kind == "" {
			kind = EstimatorReactive
		}
		return fmt.Errorf("core: cannot restore %q estimator state into the predictive estimator; rerun with -estimator=%s or discard the checkpoint",
			kind, kind)
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
	for i := range e.mapRate {
		e.mapRate[i] = ewmaRate{rate: st.MapRates[i], rolls: st.MapRolls[i]}
	}
	for i := range e.domRate {
		e.domRate[i] = ewmaRate{rate: st.DomRates[i], rolls: st.DomRolls[i]}
	}
	e.globals = ewmaRate{rate: st.GlobalRate, rolls: st.GlobalRolls}
	e.meanTTL = st.MeanTTL
	if e.meanTTL > 0 {
		e.ttlObs = 1
	}
	e.forecastErr = ewmaRate{rate: st.ForecastErr}
	if st.ForecastErr > 0 {
		e.forecastErr.rolls = 1
	}
	// Windows are engine-time soft state and never serialized; start
	// empty and repopulate from live decisions.
	for i := range e.windows {
		e.windows[i] = nil
		e.soonest[i] = nil
	}
	e.lastNow = 0
	e.lastRoll = 0
	e.prevForecast = nil
	e.haveForecast = false
	return nil
}

// Compile-time interface checks: both kinds satisfy the seam, and only
// the predictive kind is a Forecaster.
var (
	_ LoadEstimator = (*Estimator)(nil)
	_ LoadEstimator = (*PredictiveEstimator)(nil)
	_ Forecaster    = (*PredictiveEstimator)(nil)
)
