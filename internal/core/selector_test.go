package core

import (
	"math"
	"testing"

	"dnslb/internal/simcore"
)

func zipfState(t *testing.T, level int, k int) *State {
	t.Helper()
	c, err := ScaledCluster(7, level, 500)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewState(c, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetWeights(simcore.ZipfWeights(k, 1)); err != nil {
		t.Fatal(err)
	}
	return st
}

// allSelectors returns one of every selector: the four rotation
// variants and the three ledger selectors.
func allSelectors(rng Rand, now func() float64) map[string]Selector {
	return map[string]Selector{
		"RR": newRotation(false, nil), "RR2": newRotation(true, nil),
		"PRR": newRotation(false, rng), "PRR2": newRotation(true, rng),
		"WRR": NewWRR(), "DAL": NewDAL(now, 240), "MRL": NewMRL(now, 240),
	}
}

func TestRRCycles(t *testing.T) {
	st := zipfState(t, 20, 20)
	sel := newRotation(false, nil)
	n := st.Snapshot().Cluster().N()
	for round := 0; round < 3; round++ {
		for want := 0; want < n; want++ {
			if got := sel.Select(st.Snapshot(), round%20); got != want {
				t.Fatalf("round %d: Select = %d, want %d", round, got, want)
			}
		}
	}
}

func TestRRSkipsAlarmed(t *testing.T) {
	st := zipfState(t, 20, 20)
	sel := newRotation(false, nil)
	st.SetAlarm(1, true)
	st.SetAlarm(2, true)
	var got []int
	for i := 0; i < 5; i++ {
		got = append(got, sel.Select(st.Snapshot(), 0))
	}
	want := []int{0, 3, 4, 5, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("alarmed skip order = %v, want %v", got, want)
		}
	}
	// All alarmed: falls back to plain cycling.
	for i := 0; i < st.Snapshot().Cluster().N(); i++ {
		st.SetAlarm(i, true)
	}
	seen := make(map[int]bool)
	for i := 0; i < st.Snapshot().Cluster().N(); i++ {
		seen[sel.Select(st.Snapshot(), 0)] = true
	}
	if len(seen) != st.Snapshot().Cluster().N() {
		t.Errorf("all-alarmed fallback cycled over %d servers, want %d", len(seen), st.Snapshot().Cluster().N())
	}
}

func TestRR2IndependentPointersPerClass(t *testing.T) {
	st := zipfState(t, 20, 20)
	sel := newRotation(true, nil)
	// Domain 0 is hot, domain 19 is normal: each class starts its own
	// cycle at server 0.
	if got := sel.Select(st.Snapshot(), 0); got != 0 {
		t.Errorf("first hot selection = %d, want 0", got)
	}
	if got := sel.Select(st.Snapshot(), 19); got != 0 {
		t.Errorf("first normal selection = %d, want 0 (independent pointer)", got)
	}
	if got := sel.Select(st.Snapshot(), 1); got != 1 { // second hot request
		t.Errorf("second hot selection = %d, want 1", got)
	}
	if got := sel.Select(st.Snapshot(), 18); got != 1 { // second normal request
		t.Errorf("second normal selection = %d, want 1", got)
	}
}

func TestPRRCapacityProportionalAssignment(t *testing.T) {
	// Heterogeneity 50%: α = {1,1,.8,.8,.5,.5,.5}. PRR should assign
	// address requests roughly proportionally to α.
	st := zipfState(t, 50, 20)
	rng := simcore.NewStream(42, "prr")
	sel := newRotation(false, rng)
	n := st.Snapshot().Cluster().N()
	counts := make([]float64, n)
	const trials = 140000
	for i := 0; i < trials; i++ {
		counts[sel.Select(st.Snapshot(), i%20)]++
	}
	var alphaSum float64
	for i := 0; i < n; i++ {
		alphaSum += st.Snapshot().Alpha(i)
	}
	for i := 0; i < n; i++ {
		got := counts[i] / trials
		want := st.Snapshot().Alpha(i) / alphaSum
		if math.Abs(got-want) > 0.01 {
			t.Errorf("server %d assignment share = %.4f, want ≈ %.4f (∝ capacity)", i, got, want)
		}
	}
}

func TestPRR2ClassSeparation(t *testing.T) {
	st := zipfState(t, 35, 20)
	rng := simcore.NewStream(7, "prr2")
	sel := newRotation(true, rng)
	// Both classes should produce capacity-proportional assignment.
	n := st.Snapshot().Cluster().N()
	hot := make([]float64, n)
	norm := make([]float64, n)
	const trials = 70000
	for i := 0; i < trials; i++ {
		hot[sel.Select(st.Snapshot(), i%5)]++       // domains 0..4 are hot
		norm[sel.Select(st.Snapshot(), 5+(i%15))]++ // domains 5..19 are normal
	}
	var alphaSum float64
	for i := 0; i < n; i++ {
		alphaSum += st.Snapshot().Alpha(i)
	}
	for i := 0; i < n; i++ {
		want := st.Snapshot().Alpha(i) / alphaSum
		if math.Abs(hot[i]/trials-want) > 0.012 {
			t.Errorf("hot class share server %d = %.4f, want ≈ %.4f", i, hot[i]/trials, want)
		}
		if math.Abs(norm[i]/trials-want) > 0.012 {
			t.Errorf("normal class share server %d = %.4f, want ≈ %.4f", i, norm[i]/trials, want)
		}
	}
}

func TestPRRSkipsAlarmed(t *testing.T) {
	st := zipfState(t, 50, 20)
	rng := simcore.NewStream(3, "prr-alarm")
	sel := newRotation(false, rng)
	st.SetAlarm(0, true)
	st.SetAlarm(1, true)
	for i := 0; i < 1000; i++ {
		got := sel.Select(st.Snapshot(), i%20)
		if got == 0 || got == 1 {
			t.Fatalf("PRR selected alarmed server %d", got)
		}
	}
}

func TestDALPrefersLeastLoadedPerCapacity(t *testing.T) {
	st := zipfState(t, 50, 20)
	now := 0.0
	sel := NewDAL(func() float64 { return now }, 240)
	// First request (hot domain 0) goes to some empty server; repeat
	// requests from the hottest domain must spread because accumulated
	// load penalizes the previous choice.
	first := sel.Select(st.Snapshot(), 0)
	second := sel.Select(st.Snapshot(), 0)
	if first == second {
		t.Errorf("DAL sent consecutive hot-domain requests to the same server %d", first)
	}
	// Load expires after the TTL: after time passes, the accumulated
	// entries vanish and the first server becomes attractive again.
	now = 1000
	counts := make(map[int]int)
	for i := 0; i < 7; i++ {
		counts[sel.Select(st.Snapshot(), 0)]++
	}
	if len(counts) < 4 {
		t.Errorf("DAL used only %d distinct servers for 7 hot requests", len(counts))
	}
}

func TestDALCapacityAware(t *testing.T) {
	// Two servers, capacities 100 and 50. Equal accumulated load should
	// route to the faster server (smaller load/α).
	c := MustCluster([]float64{100, 50})
	st, err := NewState(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetWeights([]float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	sel := NewDAL(func() float64 { return 0 }, 240)
	counts := make([]int, 2)
	for i := 0; i < 30; i++ {
		counts[sel.Select(st.Snapshot(), i%2)]++
	}
	if counts[0] <= counts[1] {
		t.Errorf("capacity-aware DAL assigned %v, want majority on the faster server", counts)
	}
	// Ratio should approximate the capacity ratio 2:1.
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("assignment ratio = %v, want ≈ 2", ratio)
	}
}

func TestDALRespectsAlarms(t *testing.T) {
	st := zipfState(t, 50, 20)
	sel := NewDAL(func() float64 { return 0 }, 240)
	st.SetAlarm(0, true)
	for i := 0; i < 100; i++ {
		if got := sel.Select(st.Snapshot(), i%20); got == 0 {
			t.Fatal("DAL selected alarmed server 0")
		}
	}
}

// A server that joins starts empty while the others keep the load
// their outstanding mappings pin, so DAL sends it the next request.
func TestDALKeepsLoadAcrossJoin(t *testing.T) {
	st, err := NewState(MustCluster([]float64{100, 100}), 2)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := NewPolicy(PolicyConfig{Name: "DAL", State: st, Now: func() float64 { return 0 }})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		if _, err := pol.Schedule(j); err != nil {
			t.Fatal(err)
		}
	}
	joined, err := st.AddServer(100)
	if err != nil {
		t.Fatal(err)
	}
	d, err := pol.Schedule(0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Server != joined {
		t.Errorf("first pick after the join = server %d, want the empty new server %d", d.Server, joined)
	}
}

func TestSelectorsAlwaysInRange(t *testing.T) {
	st := zipfState(t, 65, 20)
	rng := simcore.NewStream(9, "range")
	now := 0.0
	selectors := map[string]Selector{
		"RR": newRotation(false, nil), "RR2": newRotation(true, nil),
		"PRR": newRotation(false, rng), "PRR2": newRotation(true, rng),
		"DAL": NewDAL(func() float64 { now += 1; return now }, 240),
	}
	n := st.Snapshot().Cluster().N()
	for name, sel := range selectors {
		for i := 0; i < 2000; i++ {
			if i == 500 {
				st.SetAlarm(i%n, true)
			}
			if i == 1500 {
				st.SetAlarm(i%n, false)
			}
			got := sel.Select(st.Snapshot(), i%20)
			if got < 0 || got >= n {
				t.Fatalf("%s returned out-of-range server %d", name, got)
			}
		}
	}
}

func TestSelectorsSkipDownServers(t *testing.T) {
	rng := simcore.NewStream(7, "down")
	now := func() float64 { return 0 }
	for name, sel := range allSelectors(rng, now) {
		st := zipfState(t, 20, 20)
		if err := st.SetDown(0, true); err != nil {
			t.Fatal(err)
		}
		if err := st.SetDown(4, true); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			got := sel.Select(st.Snapshot(), i%20)
			if got == 0 || got == 4 {
				t.Errorf("%s: selected down server %d", name, got)
			}
			if got < 0 {
				t.Errorf("%s: no-server answer with live servers remaining", name)
			}
		}
	}
}

func TestSelectorsReturnNoServerWhenAllDown(t *testing.T) {
	rng := simcore.NewStream(7, "alldown")
	now := func() float64 { return 0 }
	for name, sel := range allSelectors(rng, now) {
		st := zipfState(t, 20, 20)
		n := st.Snapshot().Cluster().N()
		for i := 0; i < n; i++ {
			if err := st.SetDown(i, true); err != nil {
				t.Fatal(err)
			}
		}
		if got := sel.Select(st.Snapshot(), 0); got != -1 {
			t.Errorf("%s: Select = %d with all servers down, want -1", name, got)
		}
		// Recovery restores selection.
		if err := st.SetDown(2, false); err != nil {
			t.Fatal(err)
		}
		if got := sel.Select(st.Snapshot(), 0); got != 2 {
			t.Errorf("%s: Select = %d after recovery of server 2", name, got)
		}
	}
}

func TestScheduleErrNoServers(t *testing.T) {
	st := zipfState(t, 20, 20)
	pol, err := NewPolicy(PolicyConfig{Name: "DRR2-TTL/S_K", State: st})
	if err != nil {
		t.Fatal(err)
	}
	n := st.Snapshot().Cluster().N()
	for i := 0; i < n; i++ {
		if err := st.SetDown(i, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pol.Schedule(3); err != ErrNoServers {
		t.Fatalf("Schedule error = %v, want ErrNoServers", err)
	}
	if pol.Stats().Decisions != 0 {
		t.Error("failed schedule must not count as a decision")
	}
	if err := st.SetDown(1, false); err != nil {
		t.Fatal(err)
	}
	d, err := pol.Schedule(3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Server != 1 {
		t.Errorf("Schedule after recovery chose %d, want the only live server 1", d.Server)
	}
}

func TestTTLRecalibratesOnMembershipChange(t *testing.T) {
	// TTL/S_i calibrates E[1/s_i] over live servers: removing the most
	// capable server must change the calibrated base.
	st := zipfState(t, 65, 20)
	ttl, err := NewTTLPolicy(TTLVariant{Classes: PerDomain, ServerAware: true}, 240)
	if err != nil {
		t.Fatal(err)
	}
	before := ttl.recalibrate(st.Snapshot()).base
	if err := st.SetDown(0, true); err != nil { // server 0 is the most capable
		t.Fatal(err)
	}
	after := ttl.recalibrate(st.Snapshot()).base
	if before == after {
		t.Errorf("base unchanged (%v) after losing the most capable server", before)
	}
	if err := st.SetDown(0, false); err != nil {
		t.Fatal(err)
	}
	if got := ttl.recalibrate(st.Snapshot()).base; math.Abs(got-before) > 1e-12 {
		t.Errorf("base = %v after recovery, want %v restored", got, before)
	}
}
