package core

import (
	"container/heap"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// The reference below is PR 13's decision tap, moved here verbatim: it
// re-prunes the slot on every decision and, once the slot is full,
// scans it for the soonest expiry. The differential test drives it and
// the index-heap tap with the same stream and demands bit-identical
// state.

func refObserveDecision(e *PredictiveEstimator, domain int, now, ttl float64) {
	if domain < 0 || domain >= e.domains || ttl <= 0 || math.IsNaN(now) || math.IsInf(now, 0) {
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
	w := refPrune(e, dc)
	win := mappingWindow{start: now, expiry: now + ttl}
	if len(w) < maxTrackedWindows {
		e.windows[dc] = append(w, win)
		return
	}
	// Full: replace the soonest-expiring window if the new one lasts
	// longer, keeping the forecast horizon as long as possible.
	minAt, minExp := -1, win.expiry
	for i := range w {
		if w[i].expiry < minExp {
			minAt, minExp = i, w[i].expiry
		}
	}
	if minAt >= 0 {
		w[minAt] = win
	}
}

func refPrune(e *PredictiveEstimator, dc int) []mappingWindow {
	w := e.windows[dc]
	keep := w[:0]
	for _, win := range w {
		if win.expiry > e.lastRoll {
			keep = append(keep, win)
		}
	}
	e.windows[dc] = keep
	return keep
}

// refPruned prunes every slot, as the parent's ForecastRates (and so
// its Rates and Weights) did before counting the active windows.
func refPruned(e *PredictiveEstimator) *PredictiveEstimator {
	for dc := range e.windows {
		refPrune(e, dc)
	}
	return e
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// sameModel compares the NS-cache model of slots [lo, hi) bit for bit.
func sameModel(t *testing.T, step int, got, ref *PredictiveEstimator, lo, hi int) {
	t.Helper()
	if !sameBits(got.meanTTL, ref.meanTTL) || got.ttlObs != ref.ttlObs ||
		!sameBits(got.lastNow, ref.lastNow) || !sameBits(got.lastRoll, ref.lastRoll) {
		t.Fatalf("step %d: meanTTL/ttlObs/lastNow/lastRoll = %v/%d/%v/%v, reference %v/%d/%v/%v", step,
			got.meanTTL, got.ttlObs, got.lastNow, got.lastRoll, ref.meanTTL, ref.ttlObs, ref.lastNow, ref.lastRoll)
	}
	for dc := lo; dc < hi; dc++ {
		g, r := got.windows[dc], ref.windows[dc]
		if len(g) != len(r) {
			t.Fatalf("step %d slot %d: %d windows, reference %d", step, dc, len(g), len(r))
		}
		for i := range g {
			if !sameBits(g[i].start, r[i].start) || !sameBits(g[i].expiry, r[i].expiry) {
				t.Fatalf("step %d slot %d window %d: %+v, reference %+v", step, dc, i, g[i], r[i])
			}
		}
	}
}

// checkSlot asserts the stated invariants of one slot: the cap, every
// window ahead of the attribution fence, and — when the index heap is
// built — that it is a heap over a permutation of the full slot.
func checkSlot(t *testing.T, e *PredictiveEstimator, dc int) {
	t.Helper()
	w, h := e.windows[dc], e.soonest[dc]
	if len(w) > maxTrackedWindows {
		t.Fatalf("slot %d holds %d windows, cap %d", dc, len(w), maxTrackedWindows)
	}
	for i, win := range w {
		if !(win.expiry > e.lastRoll) {
			t.Fatalf("slot %d window %d expiry %v not after the fence %v", dc, i, win.expiry, e.lastRoll)
		}
	}
	if len(h) == 0 {
		return
	}
	if len(h) != maxTrackedWindows || len(w) != maxTrackedWindows {
		t.Fatalf("slot %d: heap of %d over %d windows", dc, len(h), len(w))
	}
	seen := make([]bool, len(w))
	for i, idx := range h {
		if seen[idx] {
			t.Fatalf("slot %d: index %d twice in the heap", dc, idx)
		}
		seen[idx] = true
		if i > 0 && soonestLess(w, idx, h[(i-1)/2]) {
			t.Fatalf("slot %d: heap order broken at position %d", dc, i)
		}
	}
}

func sameRolled(t *testing.T, step int, got, ref *PredictiveEstimator) {
	t.Helper()
	sameFloats(t, "Rates", got.Rates(), refPruned(ref).Rates())
	sameFloats(t, "Weights", got.Weights(), refPruned(ref).Weights())
	if !sameBits(got.ForecastError(), ref.ForecastError()) {
		t.Fatalf("step %d: ForecastError = %v, reference %v", step, got.ForecastError(), ref.ForecastError())
	}
	gs, err := json.Marshal(got.State())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := json.Marshal(ref.State())
	if err != nil {
		t.Fatal(err)
	}
	// encoding/json prints the shortest decimal that round-trips, so
	// equal text is equal bits.
	if string(gs) != string(rs) {
		t.Fatalf("step %d: State differs\n got %s\n ref %s", step, gs, rs)
	}
}

// TestPredictiveMatchesLinearScanReference is the differential oracle
// for the O(log W) decision tap: seeded streams on a non-decreasing
// clock with bursts far beyond the cap, exact expiry ties (times and
// TTLs are multiples of 1/64 s, so sums are exact), newcomers that
// expire before everything stored, lulls that let full slots expire,
// and Record/Roll/ForecastRates at irregular points.
func TestPredictiveMatchesLinearScanReference(t *testing.T) {
	const domains = 3
	ttls := []float64{0.5, 1, 2, 8, 30, 30, 60, 60, 60.015625, 240}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, _ := NewPredictiveEstimator(domains, 0.5)
		ref, _ := NewPredictiveEstimator(domains, 0.5)
		var now, lastRollAt float64
		var before []mappingWindow
		sameAll := func(step int) {
			sameModel(t, step, got, ref, 0, domains*predictiveClasses)
			for dc := range got.windows {
				checkSlot(t, got, dc)
			}
		}
		var replaced, dropped, rebuilt, prunedFull, decisions [domains * predictiveClasses]int
		for step := 0; step < 24000; step++ {
			switch p := rng.Intn(3000); {
			case p == 0: // a lull longer than most TTLs: the next Roll prunes full slots
				now += float64(64 + rng.Intn(256))
			case p < 2880: // a decision; domain 0 takes most of them
				if rng.Intn(3) > 0 {
					now += float64(rng.Intn(3)) / 64
				}
				d := 0
				if rng.Intn(4) == 0 {
					d = 1 + rng.Intn(domains-1)
				}
				ttl := ttls[rng.Intn(len(ttls))]
				dc := d*predictiveClasses + got.classOf(ttl)
				wasFull := len(got.windows[dc]) == maxTrackedWindows
				if wasFull {
					before = append(before[:0], got.windows[dc]...)
				}
				hadHeap := len(got.soonest[dc]) > 0
				got.ObserveDecision(d, now, ttl)
				refObserveDecision(ref, d, now, ttl)
				sameModel(t, step, got, ref, dc, dc+1)
				if step%8 == 0 { // every step would triple the -race run time
					checkSlot(t, got, dc)
				}
				decisions[dc]++
				if wasFull {
					if !hadHeap {
						rebuilt[dc]++
					}
					changed := false
					for i := range before {
						changed = changed || before[i] != got.windows[dc][i]
					}
					if changed {
						replaced[dc]++
					} else {
						dropped[dc]++
					}
				}
			case p < 2940:
				d, hits := rng.Intn(domains), float64(rng.Intn(500))
				if got.Record(d, hits) != ref.Record(d, hits) {
					t.Fatalf("step %d: Record disagrees", step)
				}
			case p < 2970:
				at := now + float64(rng.Intn(4))/64
				sameFloats(t, "ForecastRates", got.ForecastRates(at), refPruned(ref).ForecastRates(at))
				sameAll(step)
			default:
				interval := now - lastRollAt
				if interval <= 0 || rng.Intn(4) == 0 {
					interval = 0.25 + float64(rng.Intn(64))/16
				}
				lastRollAt = now
				var full [domains * predictiveClasses]bool
				for dc := range full {
					full[dc] = len(got.windows[dc]) == maxTrackedWindows
				}
				got.Roll(interval)
				ref.Roll(interval)
				sameAll(step)
				sameRolled(t, step, got, ref)
				for dc := range full {
					if full[dc] && len(got.windows[dc]) < maxTrackedWindows {
						prunedFull[dc]++
					}
				}
			}
		}
		// The stream must have exercised what it claims to: for the hot
		// domain, both classes overflowed the cap three times over and
		// saw every full-slot outcome, including a heap rebuilt after a
		// prune shrank a full slot.
		for dc := 0; dc < predictiveClasses; dc++ {
			if decisions[dc] < 3*maxTrackedWindows || replaced[dc] == 0 || dropped[dc] == 0 ||
				prunedFull[dc] == 0 || rebuilt[dc] < 2 {
				t.Errorf("seed %d slot %d under-exercised: decisions %d replaced %d dropped %d pruned-while-full %d heap builds %d",
					seed, dc, decisions[dc], replaced[dc], dropped[dc], prunedFull[dc], rebuilt[dc])
			}
		}
		if got.State().Rolls < 100 {
			t.Errorf("seed %d: only %d rolls", seed, got.State().Rolls)
		}
	}
}

// TestPredictiveWindowCap pins maxTrackedWindows: a slot never grows
// past it, a full slot replaces its soonest-expiring window (the first
// of several tied ones), and a newcomer that would expire no later than
// everything stored is dropped.
func TestPredictiveWindowCap(t *testing.T) {
	e, _ := NewPredictiveEstimator(2, 0.5)
	// A huge TTL on the other domain before each decision keeps the
	// class split far above 128 s, so domain 0 stays in class 0.
	observe := func(now float64) {
		e.ObserveDecision(1, now, 1e12)
		e.ObserveDecision(0, now, 128)
	}
	// Windows 0 and 1 tie on the soonest expiry.
	for i := 0; i < maxTrackedWindows; i++ {
		observe(float64(i / 2 * 2))
	}
	w := e.windows[0]
	if len(w) != maxTrackedWindows || len(e.windows[1]) != 0 {
		t.Fatalf("slots hold %d/%d windows, want %d/0", len(w), len(e.windows[1]), maxTrackedWindows)
	}
	snapshot := func() []mappingWindow { return append([]mappingWindow(nil), e.windows[0]...) }

	for _, tc := range []struct {
		name     string
		now      float64
		replaces int // index overwritten, -1 = newcomer dropped
	}{
		{"longer-lived newcomer takes the first of two tied soonest", 600, 0},
		{"then the other one", 600, 1},
		{"then the next soonest", 600.5, 2},
		{"ties the soonest expiry: dropped", 2, -1},
		{"expires before every stored window: dropped", 1, -1},
		{"replaces the next soonest", 601, 3},
	} {
		before := snapshot()
		observe(tc.now)
		after := snapshot()
		if len(after) != maxTrackedWindows {
			t.Fatalf("%s: slot holds %d windows", tc.name, len(after))
		}
		for i := range after {
			want := before[i]
			if i == tc.replaces {
				want = mappingWindow{start: tc.now, expiry: tc.now + 128}
			}
			if after[i] != want {
				t.Fatalf("%s: window %d = %+v, want %+v", tc.name, i, after[i], want)
			}
		}
		checkSlot(t, e, 0)
	}

	// Three more caps' worth of ever-later decisions: the length holds
	// and the slot ends up with exactly the latest 512.
	for i := 0; i < 3*maxTrackedWindows; i++ {
		observe(1000 + float64(i))
		if len(e.windows[0]) != maxTrackedWindows {
			t.Fatalf("slot holds %d windows after overflow decision %d", len(e.windows[0]), i)
		}
	}
	for dc := range e.windows {
		checkSlot(t, e, dc)
	}
	for i, win := range e.windows[0] {
		if win.start < 1000+2*maxTrackedWindows {
			t.Fatalf("window %d = %+v survived %d later-expiring newcomers", i, win, 3*maxTrackedWindows)
		}
	}
}

// TestPredictiveRejectsNonFiniteTTL: a NaN or +Inf TTL used to pass the
// ttl <= 0 guard and poison meanTTL for good — the class split died and
// State() stopped being marshalable, failing every later checkpoint.
func TestPredictiveRejectsNonFiniteTTL(t *testing.T) {
	e, _ := NewPredictiveEstimator(2, 0.5)
	clean, _ := NewPredictiveEstimator(2, 0.5)
	for _, est := range []*PredictiveEstimator{e, clean} {
		est.ObserveDecision(0, 1, 60)
		est.ObserveDecision(0, 2, 20)
	}
	e.ObserveDecision(0, 3, math.NaN())
	e.ObserveDecision(1, 3, math.Inf(1))
	e.ObserveDecision(1, math.MaxFloat64, math.MaxFloat64) // now+ttl overflows
	e.ObserveDecision(1, math.Inf(-1), 30)
	if math.IsNaN(e.meanTTL) || math.IsInf(e.meanTTL, 0) {
		t.Fatalf("meanTTL = %v after non-finite TTLs", e.meanTTL)
	}
	// A following normal decision is classified as if they never came.
	for _, est := range []*PredictiveEstimator{e, clean} {
		est.ObserveDecision(1, 4, 100)
	}
	sameModel(t, 0, e, clean, 0, 2*predictiveClasses)
	if len(e.windows[1*predictiveClasses+1]) != 1 {
		t.Errorf("TTL 100 above the mean %v was not classified long-lived", e.meanTTL)
	}
	if _, err := json.Marshal(e.State()); err != nil {
		t.Fatalf("State() not marshalable: %v", err)
	}
}

// TestPredictiveRefusesWindowBehindFence: the invariant's other half. A
// clock that steps back by more than a TTL hands ObserveDecision a
// window the last Roll has already closed; it must not be stored.
func TestPredictiveRefusesWindowBehindFence(t *testing.T) {
	e, _ := NewPredictiveEstimator(1, 0.5)
	e.ObserveDecision(0, 100, 60)
	e.Record(0, 10)
	e.Roll(10) // fence at 100
	e.ObserveDecision(0, 10, 5)
	e.ObserveDecision(0, 40, 60) // expires exactly at the fence
	if n := len(e.windows[0]) + len(e.windows[1]); n != 1 {
		t.Fatalf("%d windows stored, want only the live one", n)
	}
	checkSlot(t, e, 0)
	checkSlot(t, e, 1)
}

// stdDALHeap is dalHeap driven through container/heap, as DAL and MRL
// did before: the reference for the typed push/pop.
type stdDALHeap []dalEntry

func (h stdDALHeap) Len() int           { return len(h) }
func (h stdDALHeap) Less(i, j int) bool { return h[i].expire < h[j].expire }
func (h stdDALHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *stdDALHeap) Push(x any)        { *h = append(*h, x.(dalEntry)) }
func (h *stdDALHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// TestDALHeapMatchesContainerHeap: pop order among equal expiries
// decides DAL's float sums, so the typed heap must lay entries out
// exactly as container/heap would, not merely pop a minimum.
func TestDALHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var typed dalHeap
	var std stdDALHeap
	for step := 0; step < 20000; step++ {
		if len(typed) == 0 || rng.Intn(5) < 3 {
			// Few distinct expiries: ties everywhere; server tells them apart.
			e := dalEntry{expire: float64(rng.Intn(8)), server: step, load: rng.Float64()}
			typed.push(e)
			heap.Push(&std, e)
		} else if got, want := typed.pop(), heap.Pop(&std).(dalEntry); got != want {
			t.Fatalf("step %d: pop = %+v, container/heap pops %+v", step, got, want)
		}
		if len(typed) != len(std) {
			t.Fatalf("step %d: %d entries, container/heap %d", step, len(typed), len(std))
		}
		for i := range typed {
			if typed[i] != std[i] {
				t.Fatalf("step %d: layout differs at %d: %+v vs %+v", step, i, typed[i], std[i])
			}
		}
	}
}

// TestDALSelectZeroAlloc covers the two selectors that keep a ledger of
// pending mappings, DAL and MRL: no selector allocates per decision.
func TestDALSelectZeroAlloc(t *testing.T) {
	st := zipfState(t, 50, 20)
	sn := st.Snapshot()
	for name, newSelector := range map[string]func(func() float64, float64) Selector{"DAL": NewDAL, "MRL": NewMRL} {
		now := 0.0
		sel := newSelector(func() float64 { now++; return now }, 240)
		for i := 0; i < 1000; i++ { // reach the steady 240 pending mappings
			sel.Select(sn, i%20)
		}
		i := 0
		if n := testing.AllocsPerRun(1000, func() { sel.Select(sn, i%20); i++ }); n != 0 {
			t.Errorf("%s Select allocates %v times per decision, want 0", name, n)
		}
	}
}

// fullPredictive returns a 20-domain estimator (the benchmark server's
// size) warmed until every (domain, class) slot is at the cap, and the
// next decision's (domain, now, ttl) generator. Rounds of 120 s and
// 360 s TTLs alternate, so the running mean sends them to different
// classes and, within a class, every newcomer outlives what is stored.
func fullPredictive(tb testing.TB) (*PredictiveEstimator, func(i int) (int, float64, float64)) {
	tb.Helper()
	const domains = 20
	e, err := NewPredictiveEstimator(domains, DefaultEstimatorAlpha)
	if err != nil {
		tb.Fatal(err)
	}
	next := func(i int) (int, float64, float64) {
		return i % domains, float64(i) * 50e-6, float64(120 + 240*(i/domains%2))
	}
	i := 0
	for full := false; !full; {
		for k := 0; k < domains*maxTrackedWindows; k, i = k+1, i+1 {
			e.ObserveDecision(next(i))
		}
		full = true
		for _, w := range e.windows {
			full = full && len(w) == maxTrackedWindows
		}
		if i > 100*domains*maxTrackedWindows {
			tb.Fatal("slots never filled")
		}
	}
	return e, func(k int) (int, float64, float64) { return next(i + k) }
}

// BenchmarkObserveDecision times the per-query decision tap: filling is
// the append while a slot has room, full the steady state of any live
// server (every slot at the cap, each newcomer outliving the soonest
// expiry, so every call replaces and sifts).
func BenchmarkObserveDecision(b *testing.B) {
	b.Run("filling", func(b *testing.B) {
		e, next := fullPredictive(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%(len(e.windows)*maxTrackedWindows/4) == 0 {
				b.StopTimer()
				for dc := range e.windows {
					e.windows[dc] = e.windows[dc][:0]
					e.soonest[dc] = e.soonest[dc][:0]
				}
				b.StartTimer()
			}
			e.ObserveDecision(next(i))
		}
	})
	b.Run("full", func(b *testing.B) {
		e, next := fullPredictive(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.ObserveDecision(next(i))
		}
	})
}
