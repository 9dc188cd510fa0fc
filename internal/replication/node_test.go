package replication

import (
	"math"
	"testing"

	"dnslb/internal/core"
	"dnslb/internal/engine"
)

// testReplica is a Node over a freshly built engine with a manual
// clock, the unit the protocol tests compose.
type testReplica struct {
	node  *Node
	eng   *engine.Engine
	clock *engine.ManualClock
}

func newTestReplica(t *testing.T, origin string, epoch int64, servers, domains int) *testReplica {
	t.Helper()
	caps := make([]float64, servers)
	for i := range caps {
		caps[i] = float64(100 - 10*i)
	}
	cluster, err := core.NewCluster(caps)
	if err != nil {
		t.Fatal(err)
	}
	state, err := core.NewState(cluster, domains)
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
	clock := &engine.ManualClock{}
	est, err := core.NewEstimator(domains, core.DefaultEstimatorAlpha)
	if err != nil {
		t.Fatal(err)
	}
	var r testReplica
	eng, err := engine.New(engine.Config{
		Policy:    pol,
		Clock:     clock,
		Estimator: est,
		OnDecision: func(domain int, d core.Decision) {
			r.node.Observe(domain, d)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(NodeConfig{
		Origin: origin,
		Epoch:  epoch,
		Engine: eng,
		Base:   IdentityBase{},
	})
	if err != nil {
		t.Fatal(err)
	}
	r = testReplica{node: node, eng: eng, clock: clock}
	return &r
}

// mergeAll feeds every delta into the receiving node.
func mergeAll(t *testing.T, dst *Node, deltas []*Delta) {
	t.Helper()
	for _, d := range deltas {
		if _, err := dst.Merge(d); err != nil {
			t.Fatalf("merge into %s: %v", dst.origin, err)
		}
	}
}

func assertConverged(t *testing.T, a, b *testReplica, servers int) {
	t.Helper()
	for i := 0; i < servers; i++ {
		ae, be := a.eng.MappingExpiry(i), b.eng.MappingExpiry(i)
		if math.Float64bits(ae) != math.Float64bits(be) {
			t.Errorf("ledger slot %d diverges: %s=%v %s=%v", i, a.node.origin, ae, b.node.origin, be)
		}
		asn, bsn := a.eng.State().Snapshot(), b.eng.State().Snapshot()
		if asn.Alarmed(i) != bsn.Alarmed(i) || asn.Down(i) != bsn.Down(i) || asn.Draining(i) != bsn.Draining(i) {
			t.Errorf("standing slot %d diverges: %s=(%v,%v,%v) %s=(%v,%v,%v)", i,
				a.node.origin, asn.Alarmed(i), asn.Down(i), asn.Draining(i),
				b.node.origin, bsn.Alarmed(i), bsn.Down(i), bsn.Draining(i))
		}
	}
}

func TestFlushEmitsOnlyChanges(t *testing.T) {
	a := newTestReplica(t, "a", 1, 3, 4)
	if ds := a.node.Flush(); ds != nil {
		t.Fatalf("idle flush emitted %d deltas", len(ds))
	}
	a.clock.Set(10)
	if _, err := a.eng.Decide(0); err != nil {
		t.Fatal(err)
	}
	ds := a.node.Flush()
	if len(ds) != 1 {
		t.Fatalf("got %d deltas, want 1", len(ds))
	}
	if len(ds[0].Ledger) == 0 {
		t.Fatal("decision did not surface a ledger entry")
	}
	if ds[0].Seq != 1 || ds[0].Origin != "a" || ds[0].Epoch != 1 {
		t.Fatalf("bad envelope: %+v", ds[0])
	}
	// Nothing changed since: next flush is empty.
	if ds := a.node.Flush(); ds != nil {
		t.Fatalf("no-change flush emitted %d deltas", len(ds))
	}
}

func TestFlushDetectsLocalStandingWrites(t *testing.T) {
	a := newTestReplica(t, "a", 1, 3, 4)
	a.clock.Set(5)
	if err := a.eng.SetAlarm(1, true); err != nil {
		t.Fatal(err)
	}
	ds := a.node.Flush()
	if len(ds) != 1 || len(ds[0].Standing) != 1 {
		t.Fatalf("expected one standing entry, got %+v", ds)
	}
	e := ds[0].Standing[0]
	if e.Server != 1 || !e.Alarmed || e.Origin != "a" || e.Epoch != 1 || e.Stamp != 5 {
		t.Fatalf("bad standing entry: %+v", e)
	}
}

func TestLagZeroPairConverges(t *testing.T) {
	const servers, domains = 4, 6
	a := newTestReplica(t, "a", 1, servers, domains)
	b := newTestReplica(t, "b", 1, servers, domains)
	for step := 0; step < 50; step++ {
		now := float64(step) * 2
		a.clock.Set(now)
		b.clock.Set(now)
		if _, err := a.eng.Decide(step % domains); err != nil {
			t.Fatal(err)
		}
		if step == 20 {
			if err := a.eng.SetAlarm(1, true); err != nil {
				t.Fatal(err)
			}
		}
		if step == 30 {
			if err := b.eng.SetDown(2, true); err != nil {
				t.Fatal(err)
			}
		}
		mergeAll(t, b.node, a.node.Flush())
		mergeAll(t, a.node, b.node.Flush())
	}
	assertConverged(t, a, b, servers)
	if !b.eng.State().Snapshot().Alarmed(1) {
		t.Error("alarm did not replicate a→b")
	}
	if !a.eng.State().Snapshot().Down(2) {
		t.Error("down did not replicate b→a")
	}
}

// TestPartitionHealsInOneRound is the anti-entropy guarantee: after an
// arbitrarily long partition (every delta dropped), one snapshot
// exchange converges both replicas.
func TestPartitionHealsInOneRound(t *testing.T) {
	const servers, domains = 5, 8
	a := newTestReplica(t, "a", 1, servers, domains)
	b := newTestReplica(t, "b", 1, servers, domains)

	// Partitioned phase: both schedule and adjudicate independently;
	// every flush is lost.
	for step := 0; step < 40; step++ {
		now := float64(step) * 3
		a.clock.Set(now)
		b.clock.Set(now)
		if _, err := a.eng.Decide(step % domains); err != nil {
			t.Fatal(err)
		}
		if _, err := b.eng.Decide((step + 1) % domains); err != nil {
			t.Fatal(err)
		}
		a.node.Flush()
		b.node.Flush()
	}
	a.clock.Set(130)
	b.clock.Set(130)
	if err := a.eng.SetAlarm(0, true); err != nil {
		t.Fatal(err)
	}
	b.clock.Set(131) // b's write is later: LWW must pick it everywhere
	if err := b.eng.SetAlarm(0, true); err != nil {
		t.Fatal(err)
	}
	if err := b.eng.SetDown(3, true); err != nil {
		t.Fatal(err)
	}
	if err := a.eng.State().DrainServer(4); err != nil {
		t.Fatal(err)
	}
	a.node.Flush()
	b.node.Flush()

	// Heal: exactly one anti-entropy round (snapshot each way).
	a.clock.Set(140)
	b.clock.Set(140)
	mergeAll(t, b.node, a.node.Snapshot())
	mergeAll(t, a.node, b.node.Snapshot())

	assertConverged(t, a, b, servers)
	if !a.eng.State().Snapshot().Down(3) {
		t.Error("partitioned down write did not reach a")
	}
	if !b.eng.State().Snapshot().Draining(4) {
		t.Error("partitioned drain did not reach b")
	}
	st := a.node.Stats()
	if st.FullSyncsIn == 0 || st.FullSyncsOut == 0 {
		t.Errorf("full syncs not counted: %+v", st)
	}
}

// TestSnapshotExcludesEstimatorState pins the replication contract:
// deltas carry interval-scoped hit counts only, never the estimator's
// rolled soft state (rates, rolls, learned per-mapping models). A
// snapshot carries no hits at all, and a peer that merges another
// replica's full snapshot keeps its own estimator byte-identical — each
// replica smooths the hidden load it observes, and anti-entropy must
// not overwrite local learning with a remote replica's view.
func TestSnapshotExcludesEstimatorState(t *testing.T) {
	a := newTestReplica(t, "a", 1, 3, 4)
	b := newTestReplica(t, "b", 1, 3, 4)

	// Both replicas learn different hidden-load profiles; a also has
	// hits pending for its next flush and a ledger window to snapshot.
	a.eng.RecordHits(0, 900)
	a.node.AddHits(0, 900)
	if err := a.eng.RollEstimates(30); err != nil {
		t.Fatal(err)
	}
	a.node.AddHits(1, 40)
	a.clock.Set(5)
	if _, err := a.eng.Decide(0); err != nil {
		t.Fatal(err)
	}
	b.eng.RecordHits(1, 60)
	if err := b.eng.RollEstimates(30); err != nil {
		t.Fatal(err)
	}
	before, ok := b.eng.EstimatorState()
	if !ok {
		t.Fatal("test engine should have an estimator")
	}

	snap := a.node.Snapshot()
	for _, d := range snap {
		if len(d.Hits) != 0 {
			t.Fatalf("snapshot delta carries %d hit entries; snapshots must never carry estimator input", len(d.Hits))
		}
	}
	mergeAll(t, b.node, snap)

	after, _ := b.eng.EstimatorState()
	if after.Rolls != before.Rolls {
		t.Errorf("merge changed estimator rolls: %d → %d", before.Rolls, after.Rolls)
	}
	for j := range before.Rates {
		if math.Float64bits(after.Rates[j]) != math.Float64bits(before.Rates[j]) {
			t.Errorf("merge changed rolled rate[%d]: %v → %v", j, before.Rates[j], after.Rates[j])
		}
	}
	for j := range before.Counts {
		if after.Counts[j] != before.Counts[j] {
			t.Errorf("merge changed pending count[%d]: %v → %v", j, before.Counts[j], after.Counts[j])
		}
	}
}

// TestEpochFencing: a delta from a replica's previous incarnation must
// not override its post-restart state.
func TestEpochFencing(t *testing.T) {
	a := newTestReplica(t, "a", 1, 3, 4)
	b := newTestReplica(t, "b", 1, 3, 4)

	// Pre-crash incarnation of a alarms server 0.
	a.clock.Set(10)
	if err := a.eng.SetAlarm(0, true); err != nil {
		t.Fatal(err)
	}
	stale := a.node.Flush()

	// Post-restart incarnation: higher epoch, clock restarted at an
	// earlier stamp, alarm state reset. Any delta it emits registers
	// the new epoch at its peers.
	a2 := newTestReplica(t, "a", 2, 3, 4)
	a2.clock.Set(1)
	if _, err := a2.eng.Decide(0); err != nil {
		t.Fatal(err)
	}
	mergeAll(t, b.node, a2.node.Flush())

	// The stale pre-crash delta arrives late: it must be dropped whole
	// on the envelope epoch despite its larger stamp.
	for _, d := range stale {
		st, err := b.node.Merge(d)
		if err != nil {
			t.Fatal(err)
		}
		if st.Applied || st.Dropped != "epoch" {
			t.Fatalf("stale-epoch delta not fenced: %+v", st)
		}
	}
	if b.eng.State().Snapshot().Alarmed(0) {
		t.Error("pre-restart write overrode post-restart state")
	}
	if got := b.node.Stats().DroppedEpoch; got == 0 {
		t.Error("DroppedEpoch not counted")
	}
}

func TestSeqDedupStopsReplayedHits(t *testing.T) {
	a := newTestReplica(t, "a", 1, 2, 4)
	b := newTestReplica(t, "b", 1, 2, 4)
	a.node.AddHits(0, 100)
	ds := a.node.Flush()
	if len(ds) != 1 || len(ds[0].Hits) != 1 {
		t.Fatalf("expected one hits entry, got %+v", ds)
	}
	st, err := b.node.Merge(ds[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != 1 {
		t.Fatalf("first merge applied %d hits entries, want 1", st.Hits)
	}
	// A network-level replay of the same delta must be dropped whole.
	st, err = b.node.Merge(ds[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied || st.Dropped != "dup" {
		t.Fatalf("replay not deduplicated: %+v", st)
	}
	if got := b.node.Stats().DroppedDup; got != 1 {
		t.Errorf("DroppedDup = %d, want 1", got)
	}
}

func TestSelfEchoDropped(t *testing.T) {
	a := newTestReplica(t, "a", 1, 2, 4)
	a.clock.Set(1)
	if _, err := a.eng.Decide(0); err != nil {
		t.Fatal(err)
	}
	ds := a.node.Flush()
	st, err := a.node.Merge(ds[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied || st.Dropped != "self" {
		t.Fatalf("own delta not dropped: %+v", st)
	}
}

// TestMergedStandingNotReclaimed: state learned from a peer must be
// re-gossiped under the original writer's stamp, never re-stamped as a
// local write — otherwise an echo could override the writer's later
// updates.
func TestMergedStandingNotReclaimed(t *testing.T) {
	a := newTestReplica(t, "a", 1, 3, 4)
	b := newTestReplica(t, "b", 1, 3, 4)
	a.clock.Set(10)
	b.clock.Set(10)
	if err := a.eng.SetAlarm(1, true); err != nil {
		t.Fatal(err)
	}
	mergeAll(t, b.node, a.node.Flush())
	if !b.eng.State().Snapshot().Alarmed(1) {
		t.Fatal("alarm did not replicate")
	}
	// b's incremental flush must not re-announce the merged alarm...
	b.clock.Set(20)
	for _, d := range b.node.Flush() {
		if len(d.Standing) != 0 {
			t.Fatalf("peer-merged standing re-emitted as local: %+v", d.Standing)
		}
	}
	// ...and b's snapshot must carry a's original stamp, not b's.
	for _, d := range b.node.Snapshot() {
		for _, e := range d.Standing {
			if e.Server == 1 {
				if e.Origin != "a" || e.Stamp != 10 {
					t.Fatalf("snapshot re-stamped peer state: %+v", e)
				}
			}
		}
	}
}

// TestRefusedWriteKeepsProvenance: when the last-live-server guard
// refuses a remote down, the node must neither record the peer's
// provenance (so the entry can re-apply later) nor re-gossip the
// refusal as its own fresher write.
func TestRefusedWriteKeepsProvenance(t *testing.T) {
	a := newTestReplica(t, "a", 1, 2, 4)
	b := newTestReplica(t, "b", 1, 2, 4)
	a.clock.Set(5)
	b.clock.Set(5)
	if err := b.eng.SetDown(0, true); err != nil {
		t.Fatal(err)
	}
	mergeAll(t, a.node, b.node.Flush())
	if !a.eng.State().Snapshot().Down(0) {
		t.Fatal("first down did not replicate")
	}
	// Now b's view would take out a's last live server: refused.
	b.clock.Set(6)
	if err := b.eng.SetDown(1, true); err != nil {
		t.Fatal(err)
	}
	mergeAll(t, a.node, b.node.Flush())
	if a.eng.State().Snapshot().Down(1) {
		t.Fatal("guard failed: last live server went down")
	}
	if _, err := a.eng.Decide(0); err != nil {
		t.Fatalf("degraded replica must keep answering: %v", err)
	}
	// a must not gossip "server 1 is up" as a fresh local write.
	a.clock.Set(7)
	for _, d := range a.node.Flush() {
		for _, e := range d.Standing {
			if e.Server == 1 && e.Origin == "a" {
				t.Fatalf("refused write re-stamped as local: %+v", e)
			}
		}
	}
	// Server 0 recovers; b's re-gossiped snapshot now applies cleanly.
	a.clock.Set(8)
	if err := a.eng.SetDown(0, false); err != nil {
		t.Fatal(err)
	}
	mergeAll(t, a.node, b.node.Snapshot())
	if !a.eng.State().Snapshot().Down(1) {
		t.Error("re-gossiped down did not apply after recovery")
	}
}

func TestChunkingSplitsLargeState(t *testing.T) {
	a := newTestReplica(t, "a", 1, 2, 4)
	// Fabricate a huge pending-hits backlog to force chunking.
	for d := 0; d < 2*maxDeltaEntries; d++ {
		a.node.pendingHits[d] = 1
	}
	ds := a.node.Flush()
	if len(ds) < 2 {
		t.Fatalf("got %d deltas, want ≥2", len(ds))
	}
	total := 0
	for i, d := range ds {
		n := len(d.Ledger) + len(d.Standing) + len(d.Hits)
		if n > maxDeltaEntries {
			t.Fatalf("delta %d carries %d entries, max %d", i, n, maxDeltaEntries)
		}
		if _, err := d.Encode(); err != nil {
			t.Fatalf("chunk %d does not encode: %v", i, err)
		}
		total += len(d.Hits)
	}
	if total != 2*maxDeltaEntries {
		t.Fatalf("chunking lost entries: %d of %d", total, 2*maxDeltaEntries)
	}
}

func TestWallBaseRoundTrip(t *testing.T) {
	clock := engine.NewWallClock()
	base := WallBase{Clock: clock}
	for _, sec := range []float64{0, 1.5, 3600, 86400.25} {
		got := base.FromWire(base.ToWire(sec))
		if math.Abs(got-sec) > 1e-6 {
			t.Errorf("round trip %v → %v", sec, got)
		}
	}
}

func TestHeartbeatDoesNotAdvanceDedupFence(t *testing.T) {
	// The live flush loop and each peer's delivery loop race: a delta
	// flushed (seq assigned) but still queued can be overtaken by a
	// maintenance-tick heartbeat. The heartbeat must therefore carry
	// the current watermark without consuming a number — otherwise the
	// receiver's fence rises past the queued delta and real state is
	// dup-dropped forever.
	a := newTestReplica(t, "a", 1, 3, 4)
	b := newTestReplica(t, "b", 1, 3, 4)

	a.clock.Set(10)
	if _, err := a.eng.Decide(0); err != nil {
		t.Fatal(err)
	}
	flushed := a.node.Flush() // seq 1, still "queued"
	if len(flushed) != 1 {
		t.Fatalf("got %d deltas, want 1", len(flushed))
	}

	// Heartbeat overtakes the queued delta. It must carry seq 0 — any
	// nonzero value could fence out a flushed-but-undelivered delta.
	hb := a.node.Heartbeat()
	if hb.Seq != 0 {
		t.Fatalf("heartbeat seq = %d, want 0", hb.Seq)
	}
	if len(hb.Ledger)+len(hb.Standing)+len(hb.Hits) != 0 || hb.Full {
		t.Fatalf("heartbeat not empty: %+v", hb)
	}
	if _, err := b.node.Merge(hb); err != nil {
		t.Fatal(err)
	}

	// The overtaken delta must still apply.
	st, err := b.node.Merge(flushed[0])
	if err != nil {
		t.Fatal(err)
	}
	if !st.Applied || st.Mappings == 0 {
		t.Fatalf("delta overtaken by heartbeat was dropped: %+v", st)
	}
	assertConverged(t, a, b, 3)

	// A heartbeat arriving after the delta is a harmless duplicate.
	st, err = b.node.Merge(a.node.Heartbeat())
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied || st.Dropped != "dup" {
		t.Fatalf("late heartbeat = %+v, want dup-drop", st)
	}
}

func TestHeartbeatCarriesNewEpoch(t *testing.T) {
	// A restarted replica's heartbeat must register its new epoch at
	// the peer even before any state changes, so the peer's fence
	// rejects the dead incarnation's replayed deltas.
	a1 := newTestReplica(t, "a", 1, 3, 4)
	b := newTestReplica(t, "b", 1, 3, 4)
	a1.clock.Set(10)
	if _, err := a1.eng.Decide(0); err != nil {
		t.Fatal(err)
	}
	stale := a1.node.Flush()

	a2 := newTestReplica(t, "a", 2, 3, 4) // restart: epoch 2
	if _, err := b.node.Merge(a2.node.Heartbeat()); err != nil {
		t.Fatal(err)
	}
	st, err := b.node.Merge(stale[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied || st.Dropped != "epoch" {
		t.Fatalf("stale-epoch delta after heartbeat = %+v, want epoch-drop", st)
	}
}
