package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

func newMembershipState(t *testing.T, caps []float64, domains int) *State {
	t.Helper()
	cl, err := NewCluster(caps)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewState(cl, domains)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSnapshotAlphaRhoMatchStaticCluster(t *testing.T) {
	st := newMembershipState(t, []float64{100, 80, 50}, 4)
	sn := st.Snapshot()
	cl := sn.Cluster()
	for i := 0; i < cl.N(); i++ {
		if want := cl.Capacity(i) / cl.Capacity(0); sn.Alpha(i) != want {
			t.Errorf("Alpha(%d): snapshot %v != C_i/C_1 %v", i, sn.Alpha(i), want)
		}
	}
	if want := cl.Capacity(0) / cl.Capacity(cl.N()-1); sn.Rho() != want {
		t.Errorf("Rho: snapshot %v != C_1/C_N %v", sn.Rho(), want)
	}
}

func TestAddServer(t *testing.T) {
	st := newMembershipState(t, []float64{100, 50}, 4)
	v0 := st.Snapshot().Version()
	i, err := st.AddServer(200)
	if err != nil {
		t.Fatal(err)
	}
	if i != 2 {
		t.Fatalf("AddServer index = %d, want 2", i)
	}
	sn := st.Snapshot()
	if !sn.Member(2) || sn.Draining(2) || sn.Down(2) || sn.Alarmed(2) {
		t.Error("new server should be a clean active member")
	}
	if sn.MemberServers() != 3 || sn.Cluster().N() != 3 {
		t.Errorf("members = %d, slots = %d, want 3, 3", sn.MemberServers(), sn.Cluster().N())
	}
	// The capacity vector is now unsorted (100, 50, 200); Alpha and Rho
	// renormalize against the member extremes, not positionally.
	if got := sn.Alpha(2); got != 1 {
		t.Errorf("Alpha(new max) = %v, want 1", got)
	}
	if got := sn.Alpha(1); got != 0.25 {
		t.Errorf("Alpha(1) = %v, want 0.25", got)
	}
	if got := sn.Rho(); got != 4 {
		t.Errorf("Rho = %v, want 4", got)
	}
	if st.Snapshot().Version() == v0 {
		t.Error("AddServer should bump the version for TTL recalibration")
	}
	// The new server is immediately schedulable.
	if !sn.available(2) {
		t.Error("new server should be available")
	}

	if _, err := st.AddServer(0); err == nil {
		t.Error("non-positive capacity should error")
	}
	if _, err := st.AddServer(math.NaN()); err == nil {
		t.Error("NaN capacity should error")
	}
}

func TestSetCapacity(t *testing.T) {
	st := newMembershipState(t, []float64{100, 50}, 4)
	v0 := st.Snapshot().Version()
	if err := st.SetCapacity(1, 100); err != nil {
		t.Fatal(err)
	}
	sn := st.Snapshot()
	if got := sn.Rho(); got != 1 {
		t.Errorf("Rho after equalizing = %v, want 1", got)
	}
	if got := sn.Alpha(1); got != 1 {
		t.Errorf("Alpha(1) = %v, want 1", got)
	}
	if st.Snapshot().Version() == v0 {
		t.Error("capacity change should bump version")
	}
	v1 := st.Snapshot().Version()
	if err := st.SetCapacity(1, 100); err != nil {
		t.Fatal(err)
	}
	if st.Snapshot().Version() != v1 {
		t.Error("no-op capacity change should not bump version")
	}
	if err := st.SetCapacity(5, 100); err == nil {
		t.Error("out-of-range index should error")
	}
	if err := st.SetCapacity(1, -1); err == nil {
		t.Error("negative capacity should error")
	}
}

func TestDrainRemoveReinstateLifecycle(t *testing.T) {
	st := newMembershipState(t, []float64{100, 100, 100}, 4)
	if err := st.DrainServer(1); err != nil {
		t.Fatal(err)
	}
	sn := st.Snapshot()
	if !sn.Member(1) || !sn.Draining(1) {
		t.Error("draining server should stay a member")
	}
	if sn.available(1) {
		t.Error("draining server must not be schedulable")
	}
	if sn.nEligible != 2 {
		t.Errorf("eligible = %d, want 2", sn.nEligible)
	}
	// Idempotent drain.
	if err := st.DrainServer(1); err != nil {
		t.Fatal(err)
	}

	if err := st.RemoveServer(1); err != nil {
		t.Fatal(err)
	}
	sn = st.Snapshot()
	if sn.Member(1) || sn.Draining(1) {
		t.Error("removed server should be retired with flags cleared")
	}
	if sn.MemberServers() != 2 {
		t.Errorf("members = %d, want 2", sn.MemberServers())
	}
	// Slot indices are stable: server 2 is still server 2.
	if !sn.Member(2) || !sn.available(2) {
		t.Error("surviving server index shifted")
	}
	// Retired slots reject drain/remove and ignore alarm/liveness.
	if err := st.DrainServer(1); err == nil {
		t.Error("draining a retired slot should error")
	}
	if err := st.RemoveServer(1); err == nil {
		t.Error("removing a retired slot should error")
	}
	if err := st.SetAlarm(1, true); err != nil || st.Snapshot().Alarmed(1) {
		t.Error("alarm for retired slot should be silently ignored")
	}
	if err := st.SetDown(1, true); err != nil || st.Snapshot().Down(1) {
		t.Error("liveness for retired slot should be silently ignored")
	}

	// Reinstate revives the slot at a new capacity.
	if err := st.ReinstateServer(1, 50); err != nil {
		t.Fatal(err)
	}
	sn = st.Snapshot()
	if !sn.Member(1) || sn.Draining(1) || sn.Down(1) || sn.Alarmed(1) {
		t.Error("reinstated server should be a clean member")
	}
	if got := sn.Cluster().Capacity(1); got != 50 {
		t.Errorf("reinstated capacity = %v, want 50", got)
	}
	if got := sn.Rho(); got != 2 {
		t.Errorf("Rho = %v, want 2", got)
	}
}

func TestReinstateCancelsDrain(t *testing.T) {
	st := newMembershipState(t, []float64{100, 100}, 4)
	if err := st.DrainServer(0); err != nil {
		t.Fatal(err)
	}
	if err := st.ReinstateServer(0, 100); err != nil {
		t.Fatal(err)
	}
	if sn := st.Snapshot(); sn.Draining(0) || !sn.available(0) {
		t.Error("reinstate should cancel the drain")
	}
}

func TestRemoveLastMemberRefused(t *testing.T) {
	st := newMembershipState(t, []float64{100, 100}, 4)
	if err := st.RemoveServer(0); err != nil {
		t.Fatal(err)
	}
	if err := st.RemoveServer(1); err == nil {
		t.Error("removing the last member should error")
	}
}

func TestAlarmsOverEligibleServers(t *testing.T) {
	// With one server draining, "all alarmed" must be judged over the
	// eligible servers: if both remaining eligible servers are alarmed,
	// alarms are ignored and they stay schedulable.
	st := newMembershipState(t, []float64{100, 100, 100}, 4)
	if err := st.DrainServer(2); err != nil {
		t.Fatal(err)
	}
	if err := st.SetAlarm(0, true); err != nil {
		t.Fatal(err)
	}
	sn := st.Snapshot()
	if sn.available(0) {
		t.Error("alarmed server should be skipped while another eligible server is calm")
	}
	if err := st.SetAlarm(1, true); err != nil {
		t.Fatal(err)
	}
	sn = st.Snapshot()
	if !sn.available(0) || !sn.available(1) {
		t.Error("with every eligible server alarmed, alarms must be ignored")
	}
	if sn.available(2) {
		t.Error("draining server stays unavailable regardless of alarms")
	}
}

func TestScheduleSkipsDrainingAndRetired(t *testing.T) {
	st := newMembershipState(t, []float64{100, 100, 100}, 4)
	pol, err := NewPolicy(PolicyConfig{Name: "DRR-TTL/S_K", State: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.DrainServer(1); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 30; k++ {
		d, err := pol.Schedule(k % 4)
		if err != nil {
			t.Fatal(err)
		}
		if d.Server == 1 {
			t.Fatal("scheduled the draining server")
		}
	}
	if err := st.RemoveServer(1); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 30; k++ {
		d, err := pol.Schedule(k % 4)
		if err != nil {
			t.Fatal(err)
		}
		if d.Server == 1 {
			t.Fatal("scheduled a retired server")
		}
	}
}

func TestScheduleUsesAddedServer(t *testing.T) {
	st := newMembershipState(t, []float64{100, 100}, 4)
	pol, err := NewPolicy(PolicyConfig{Name: "DRR-TTL/S_K", State: st})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pol.Schedule(0); err != nil {
		t.Fatal(err)
	}
	i, err := st.AddServer(100)
	if err != nil {
		t.Fatal(err)
	}
	seen := false
	for k := 0; k < 30; k++ {
		d, err := pol.Schedule(k % 4)
		if err != nil {
			t.Fatal(err)
		}
		if d.Server == i {
			seen = true
		}
	}
	if !seen {
		t.Error("added server never scheduled")
	}
	if pol.ServerDecisions(i) == 0 {
		t.Error("per-server counter for added server not grown")
	}
	stats := pol.Stats()
	if len(stats.PerServer) != 3 {
		t.Errorf("Stats.PerServer length = %d, want 3", len(stats.PerServer))
	}
}

func TestAllDownOverMembers(t *testing.T) {
	st := newMembershipState(t, []float64{100, 100, 100}, 4)
	if err := st.RemoveServer(2); err != nil {
		t.Fatal(err)
	}
	if err := st.SetDown(0, true); err != nil {
		t.Fatal(err)
	}
	if err := st.SetDown(1, true); err != nil {
		t.Fatal(err)
	}
	if st.Snapshot().LiveServers() != 0 {
		t.Error("every member down: no server should be live, even with a retired slot")
	}
	pol, err := NewPolicy(PolicyConfig{Name: "DRR-TTL/S_1", State: st})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pol.Schedule(0); err != ErrNoServers {
		t.Errorf("Schedule = %v, want ErrNoServers", err)
	}
}

func TestCursorsRoundTrip(t *testing.T) {
	geo, err := RingProximityConfig(4, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		geo  *ProximityConfig
	}{
		{"RR", nil}, {"RR2", nil}, {"PRR-TTL/1", nil}, {"PRR2-TTL/2", nil},
		{"DRR-TTL/S_K", nil}, {"DRR2-TTL/S_K", nil},
		// The proximity step must not hide the selector's cursors.
		{"DRR2-TTL/S_K", geo},
	} {
		name := c.name
		build := func() *Policy {
			st := newMembershipState(t, []float64{100, 80, 50}, 4)
			pol, err := NewPolicy(PolicyConfig{Name: name, State: st, Rand: rand.New(rand.NewPCG(1, 2)), Proximity: c.geo})
			if err != nil {
				t.Fatal(err)
			}
			return pol
		}
		pol := build()
		for k := 0; k < 7; k++ {
			if _, err := pol.Schedule(k % 4); err != nil {
				t.Fatal(err)
			}
		}
		cur := pol.Cursors()
		if cur == nil {
			t.Fatalf("%s: no cursors", name)
		}
		pol2 := build()
		if !pol2.RestoreCursors(cur) {
			t.Fatalf("%s: restore refused", name)
		}
		got := pol2.Cursors()
		for i := range cur {
			if got[i] != cur[i] {
				t.Errorf("%s: cursor %d = %d, want %d", name, i, got[i], cur[i])
			}
		}
		// Refused: a wrong length, and any cursor outside [-1, N) — it
		// would index outside the cluster on the next decision. A refused
		// vector leaves the cursors as they were.
		bad := [][]int64{append(cur, 99)}
		for _, v := range []int64{-5, -2, 3, math.MaxInt64} {
			out := append([]int64(nil), cur...)
			out[len(out)-1] = v
			bad = append(bad, out)
		}
		for _, b := range bad {
			if pol2.RestoreCursors(b) {
				t.Errorf("%s: cursor vector %v accepted", name, b)
			}
		}
		if got := pol2.Cursors(); !slices.Equal(got, cur) {
			t.Errorf("%s: refused restore moved the cursors to %v", name, got)
		}
		fresh := make([]int64, len(cur))
		for i := range fresh {
			fresh[i] = -1
		}
		if !pol2.RestoreCursors(fresh) {
			t.Errorf("%s: a fresh rotation's cursors %v refused", name, fresh)
		}
		for k := 0; k < 4; k++ {
			if _, err := pol2.Schedule(k); err != nil {
				t.Fatalf("%s: schedule after restore: %v", name, err)
			}
		}
	}
	// Ledger selectors carry no cursors.
	st := newMembershipState(t, []float64{100, 80}, 4)
	pol, err := NewPolicy(PolicyConfig{Name: "WRR", State: st})
	if err != nil {
		t.Fatal(err)
	}
	if pol.Cursors() != nil {
		t.Error("WRR should not expose cursors")
	}
	if pol.RestoreCursors([]int64{1}) {
		t.Error("WRR should refuse cursor restore")
	}
}

func TestEstimatorStateRoundTrip(t *testing.T) {
	e, err := NewEstimator(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	e.Record(0, 90)
	e.Record(1, 10)
	e.Roll(10)
	e.Record(2, 40)
	st := e.State()

	e2, err := NewEstimator(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(st); err != nil {
		t.Fatal(err)
	}
	if e2.State().Rolls != e.State().Rolls {
		t.Errorf("rolls = %d, want %d", e2.State().Rolls, e.State().Rolls)
	}
	w1, w2 := e.Weights(), e2.Weights()
	for j := range w1 {
		if w1[j] != w2[j] {
			t.Errorf("weight %d = %v, want %v", j, w2[j], w1[j])
		}
	}
	// Un-rolled counts survive too.
	e.Roll(10)
	e2.Roll(10)
	w1, w2 = e.Weights(), e2.Weights()
	for j := range w1 {
		if w1[j] != w2[j] {
			t.Errorf("post-roll weight %d = %v, want %v", j, w2[j], w1[j])
		}
	}

	// Invalid states are refused and leave the estimator unchanged.
	bad, _ := NewEstimator(3, 0.5)
	for _, s := range []EstimatorState{
		{Counts: []float64{1}, Rates: []float64{1, 1, 1}},
		{Counts: []float64{1, 1, 1}, Rates: []float64{1, 1, -1}},
		{Counts: []float64{1, 1, math.NaN()}, Rates: []float64{1, 1, 1}},
		{Counts: []float64{1, 1, 1}, Rates: []float64{1, 1, 1}, Rolls: -1},
	} {
		if err := bad.Restore(s); err == nil {
			t.Errorf("state %+v should be refused", s)
		}
	}
	if bad.State().Rolls != 0 {
		t.Error("failed restore mutated the estimator")
	}
}

func TestDrainVersionBumpRecalibratesTTL(t *testing.T) {
	st := newMembershipState(t, []float64{100, 25}, 4)
	ttl, err := NewTTLPolicy(TTLVariant{Classes: OneClass, ServerAware: true}, 240)
	if err != nil {
		t.Fatal(err)
	}
	base0 := ttl.recalibrate(st.Snapshot()).base
	// Draining the slow server leaves only α=1 servers; the calibrated
	// base must change to keep the mean request rate constant.
	if err := st.DrainServer(1); err != nil {
		t.Fatal(err)
	}
	base1 := ttl.recalibrate(st.Snapshot()).base
	if base0 == base1 {
		t.Errorf("TTL base did not recalibrate across drain: %v", base0)
	}
}
