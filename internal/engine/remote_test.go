package engine

import (
	"math"
	"testing"

	"dnslb/internal/core"
)

func remoteTestEngine(t *testing.T, servers int) *Engine {
	t.Helper()
	caps := make([]float64, servers)
	for i := range caps {
		caps[i] = float64(100 - 10*i)
	}
	cluster, err := core.NewCluster(caps)
	if err != nil {
		t.Fatal(err)
	}
	state, err := core.NewState(cluster, 4)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := core.NewPolicy(core.PolicyConfig{
		Name:        "RR",
		State:       state,
		ConstantTTL: core.DefaultConstantTTL,
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := &ManualClock{}
	est, err := core.NewEstimator(4, core.DefaultEstimatorAlpha)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{Policy: pol, Clock: clock, Estimator: est})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestMergeRemoteLedgerCASMax(t *testing.T) {
	e := remoteTestEngine(t, 3)
	e.NoteMapping(0, 50)
	if err := e.MergeRemote(RemoteDelta{Mappings: []RemoteMapping{
		{Server: 0, Expiry: 40}, // behind local: must not shrink
		{Server: 1, Expiry: 70},
	}}); err != nil {
		t.Fatal(err)
	}
	if got := e.MappingExpiry(0); got != 50 {
		t.Errorf("slot 0 expiry = %v, want 50 (CAS-max must not shrink)", got)
	}
	if got := e.MappingExpiry(1); got != 70 {
		t.Errorf("slot 1 expiry = %v, want 70", got)
	}
	// Re-merging the same delta is a no-op.
	if err := e.MergeRemote(RemoteDelta{Mappings: []RemoteMapping{{Server: 1, Expiry: 70}}}); err != nil {
		t.Fatal(err)
	}
	if got := e.MappingExpiry(1); got != 70 {
		t.Errorf("idempotent re-merge moved slot 1 to %v", got)
	}
}

func TestMergeRemoteSkipsGarbage(t *testing.T) {
	e := remoteTestEngine(t, 2)
	err := e.MergeRemote(RemoteDelta{
		Mappings: []RemoteMapping{
			{Server: -1, Expiry: 10},
			{Server: 0, Expiry: math.NaN()},
			{Server: 0, Expiry: math.Inf(1)},
			{Server: 99, Expiry: 10}, // unknown slot: peer is ahead on membership
		},
		Standing: []RemoteStanding{
			{Server: -1, Alarmed: true},
			{Server: 99, Down: true},
		},
		Hits: []RemoteHits{
			{Domain: 0, Hits: -3},
			{Domain: 1, Hits: math.NaN()},
		},
	})
	if err != nil {
		t.Fatalf("garbage entries must be skipped, not errors: %v", err)
	}
	if got := e.MappingExpiry(0); got != 0 {
		t.Errorf("slot 0 expiry = %v, want 0", got)
	}
	if sn := e.State().Snapshot(); sn.Alarmed(0) || sn.Down(0) || sn.Down(1) {
		t.Error("garbage standing entries mutated state")
	}
}

func TestMergeRemoteStanding(t *testing.T) {
	e := remoteTestEngine(t, 3)
	if err := e.MergeRemote(RemoteDelta{Standing: []RemoteStanding{
		{Server: 0, Alarmed: true},
		{Server: 1, Down: true},
		{Server: 2, Draining: true},
	}}); err != nil {
		t.Fatal(err)
	}
	st := e.State()
	if sn := st.Snapshot(); !sn.Alarmed(0) || !sn.Down(1) || !sn.Draining(2) {
		t.Fatalf("standing not applied: alarm0=%v down1=%v drain2=%v",
			sn.Alarmed(0), sn.Down(1), sn.Draining(2))
	}
	// Clearing propagates too.
	if err := e.MergeRemote(RemoteDelta{Standing: []RemoteStanding{
		{Server: 0, Alarmed: false},
		{Server: 1, Down: false},
	}}); err != nil {
		t.Fatal(err)
	}
	if sn := st.Snapshot(); sn.Alarmed(0) || sn.Down(1) {
		t.Errorf("standing not cleared: alarm0=%v down1=%v", sn.Alarmed(0), sn.Down(1))
	}
}

// TestMergeRemoteLastLiveGuard is the graceful-degradation invariant: a
// partitioned peer's poisoned liveness view must never make this
// replica mark its last live server down and start refusing queries.
func TestMergeRemoteLastLiveGuard(t *testing.T) {
	e := remoteTestEngine(t, 3)
	for i := 0; i < 2; i++ {
		if err := e.SetDown(i, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.MergeRemote(RemoteDelta{Standing: []RemoteStanding{
		{Server: 2, Down: true},
	}}); err != nil {
		t.Fatal(err)
	}
	if e.State().Snapshot().Down(2) {
		t.Fatal("remote delta took down the last live server")
	}
	if _, err := e.Decide(0); err != nil {
		t.Fatalf("replica must keep answering after poisoned merge: %v", err)
	}
	// Once another server recovers, the same re-gossiped entry applies.
	if err := e.SetDown(0, false); err != nil {
		t.Fatal(err)
	}
	if err := e.MergeRemote(RemoteDelta{Standing: []RemoteStanding{
		{Server: 2, Down: true},
	}}); err != nil {
		t.Fatal(err)
	}
	if !e.State().Snapshot().Down(2) {
		t.Error("re-gossiped down entry did not apply after recovery")
	}
}

// TestMergeRemoteLastSchedulableDrainGuard is the same invariant for
// drains: with servers 0 and 1 down, a gossiped drain of server 2 would
// leave nothing to schedule, so the merge skips it without an error
// (an error would answer the peer's REPL line ERR and back its link
// off). Once server 0 is back, the re-gossiped drain applies.
func TestMergeRemoteLastSchedulableDrainGuard(t *testing.T) {
	e := remoteTestEngine(t, 3)
	for i := 0; i < 2; i++ {
		if err := e.SetDown(i, true); err != nil {
			t.Fatal(err)
		}
	}
	drain := RemoteDelta{Standing: []RemoteStanding{{Server: 2, Draining: true}}}
	if err := e.MergeRemote(drain); err != nil {
		t.Fatalf("refused drain must be skipped, not an error: %v", err)
	}
	if e.State().Snapshot().Draining(2) {
		t.Fatal("remote delta drained the last schedulable server")
	}
	if _, err := e.Decide(0); err != nil {
		t.Fatalf("replica must keep answering after poisoned merge: %v", err)
	}
	if err := e.SetDown(0, false); err != nil {
		t.Fatal(err)
	}
	if err := e.MergeRemote(drain); err != nil {
		t.Fatal(err)
	}
	if !e.State().Snapshot().Draining(2) {
		t.Error("re-gossiped drain entry did not apply after recovery")
	}
}

// TestMergeRemoteUndrainReinstates covers the drain-cancelled path: a
// peer observing a re-JOIN gossips draining=false, which must reinstate
// the slot at the locally known capacity.
func TestMergeRemoteUndrainReinstates(t *testing.T) {
	e := remoteTestEngine(t, 3)
	if err := e.State().DrainServer(1); err != nil {
		t.Fatal(err)
	}
	if err := e.MergeRemote(RemoteDelta{Standing: []RemoteStanding{
		{Server: 1, Draining: false, Alarmed: true},
	}}); err != nil {
		t.Fatal(err)
	}
	sn := e.State().Snapshot()
	if sn.Draining(1) {
		t.Error("remote un-drain did not cancel the drain")
	}
	if !sn.Member(1) {
		t.Error("reinstated server lost membership")
	}
	if !sn.Alarmed(1) {
		t.Error("reinstate dropped the entry's alarm flag")
	}
}

func TestMergeRemoteHitsFeedEstimator(t *testing.T) {
	e := remoteTestEngine(t, 2)
	if err := e.MergeRemote(RemoteDelta{Hits: []RemoteHits{
		{Domain: 0, Hits: 90},
		{Domain: 1, Hits: 10},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := e.RollEstimates(30); err != nil {
		t.Fatal(err)
	}
	w := e.State().Snapshot().Weights()
	if w[0] <= w[1] {
		t.Errorf("merged hits did not skew weights: %v", w)
	}
}
