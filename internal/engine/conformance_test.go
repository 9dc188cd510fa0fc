package engine

import (
	"errors"
	"math"
	"testing"

	"dnslb/internal/core"
	"dnslb/internal/simcore"
)

// Conformance suite: the tentpole guarantee of the unified engine. One
// recorded request stream — queries interleaved with alarm, liveness,
// drain, retirement and hidden-load-report events at fixed instants —
// is applied to two engines built exactly as the two production paths
// build them:
//
//   - the "sim" engine runs under simcore virtual time, events fired
//     by the discrete-event loop, the policy stream drawn from the
//     simulator (as internal/sim wires it);
//   - the "live" engine runs under a manually stepped clock with a
//     standalone named stream (as the DNS server wires it, minus the
//     entropy seed).
//
// For every catalog policy the two must yield bit-identical
// (server, TTL) decision sequences, final mapping-ledger windows and
// final membership.
// Any divergence means the lifecycle leaked an environment dependency
// beyond the two declared seams (Clock and the policy's Rand stream).

const (
	confSeed    = 99
	confDomains = 6
	confServers = 5
)

type confEvent struct {
	time   float64
	kind   string // "query", "alarm", "down", "drain", "retire", "report"
	domain int
	server int
	on     bool
}

// conformanceEvents builds the shared recorded stream: a query from a
// rotating domain every half second, with control events woven in —
// an alarm episode on server 1, a crash/recovery of server 2, a
// graceful drain of server 4, and two hidden-load report/roll rounds
// that move the weight estimates mid-stream. Server 4 retires once its
// window has closed (retireAt is past every policy's longest TTL), and
// a last run of queries schedules over the shrunken cluster.
func conformanceEvents() []confEvent {
	var evs []confEvent
	for i := 0; i < 300; i++ {
		t := 0.5 * float64(i+1)
		switch i {
		case 40:
			evs = append(evs, confEvent{time: t, kind: "alarm", server: 1, on: true})
		case 90:
			evs = append(evs, confEvent{time: t, kind: "alarm", server: 1, on: false})
		case 120:
			evs = append(evs, confEvent{time: t, kind: "down", server: 2, on: true})
		case 150:
			evs = append(evs, confEvent{time: t, kind: "report"})
		case 180:
			evs = append(evs, confEvent{time: t, kind: "down", server: 2, on: false})
		case 220:
			evs = append(evs, confEvent{time: t, kind: "drain", server: 4})
		case 260:
			evs = append(evs, confEvent{time: t, kind: "report"})
		}
		evs = append(evs, confEvent{time: t, kind: "query", domain: i % confDomains})
	}
	evs = append(evs, confEvent{time: retireAt, kind: "retire", server: 4})
	for i := 0; i < 30; i++ {
		evs = append(evs, confEvent{time: retireAt + 0.5*float64(i+1), kind: "query", domain: i % confDomains})
	}
	return evs
}

// retireAt is when the conformance stream retires its drained server.
const retireAt = 3600

// confDecision is one recorded lifecycle outcome. TTLs compare as raw
// float64 bits: conformance is bit-identity, not tolerance.
type confDecision struct {
	domain  int
	server  int
	ttlBits uint64
	failed  bool
}

// conformanceEngine builds an engine exactly once per path, over a
// fresh heterogeneous state with skewed domain weights. estKind picks
// the load-estimator implementation; every policy must conform on
// either one.
func conformanceEngine(t *testing.T, policyName, estKind string, rng core.Rand, now func() float64, clock Clock) *Engine {
	t.Helper()
	cluster, err := core.NewCluster([]float64{140, 120, 100, 80, 60})
	if err != nil {
		t.Fatal(err)
	}
	state, err := core.NewState(cluster, confDomains)
	if err != nil {
		t.Fatal(err)
	}
	if err := state.SetWeights([]float64{0.30, 0.25, 0.18, 0.12, 0.09, 0.06}); err != nil {
		t.Fatal(err)
	}
	pol, err := core.NewPolicy(core.PolicyConfig{
		Name:        policyName,
		State:       state,
		Rand:        rng,
		Now:         now,
		ConstantTTL: core.DefaultConstantTTL,
	})
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.NewLoadEstimator(estKind, confDomains, core.DefaultEstimatorAlpha)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{Policy: pol, Clock: clock, Estimator: est})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// applyConfEvent replays one event against an engine; queries append
// their outcome to out.
func applyConfEvent(t *testing.T, eng *Engine, ev confEvent, out *[]confDecision) {
	t.Helper()
	switch ev.kind {
	case "query":
		d, err := eng.Decide(ev.domain)
		if err != nil {
			if !errors.Is(err, core.ErrNoServers) {
				t.Fatalf("Decide(%d): %v", ev.domain, err)
			}
			*out = append(*out, confDecision{domain: ev.domain, failed: true})
			return
		}
		*out = append(*out, confDecision{
			domain:  ev.domain,
			server:  d.Server,
			ttlBits: math.Float64bits(d.TTL),
		})
	case "alarm":
		if err := eng.SetAlarm(ev.server, ev.on); err != nil {
			t.Fatalf("SetAlarm(%d, %v): %v", ev.server, ev.on, err)
		}
	case "down":
		if err := eng.SetDown(ev.server, ev.on); err != nil {
			t.Fatalf("SetDown(%d, %v): %v", ev.server, ev.on, err)
		}
	case "drain":
		if _, err := eng.Drain(ev.server); err != nil {
			t.Fatalf("Drain(%d): %v", ev.server, err)
		}
	case "retire":
		if later, err := eng.Retire(ev.server); err != nil || later != 0 {
			t.Fatalf("Retire(%d) = %v, %v; want the window closed", ev.server, later, err)
		}
	case "report":
		for j := 0; j < confDomains; j++ {
			eng.RecordHits(j, float64((j+3)*17%40)+1)
		}
		if err := eng.RollEstimates(30); err != nil {
			t.Fatalf("RollEstimates: %v", err)
		}
	default:
		t.Fatalf("unknown event kind %q", ev.kind)
	}
}

// runSimPath drives the stream through a sim-built engine: virtual
// clock, events fired by the discrete-event loop.
func runSimPath(t *testing.T, policyName, estKind string, events []confEvent) ([]confDecision, *Engine) {
	t.Helper()
	sc := simcore.New(confSeed)
	eng := conformanceEngine(t, policyName, estKind, sc.Stream("policy"), sc.Now, ClockFunc(sc.Now))
	var out []confDecision
	horizon := 0.0
	for _, ev := range events {
		ev := ev
		sc.ScheduleAt(ev.time, func() { applyConfEvent(t, eng, ev, &out) })
		if ev.time > horizon {
			horizon = ev.time
		}
	}
	sc.Run(horizon + 1)
	return out, eng
}

// runLivePath drives the same stream through a live-built engine:
// manual wall-style clock stepped to each event's instant, standalone
// named policy stream.
func runLivePath(t *testing.T, policyName, estKind string, events []confEvent) ([]confDecision, *Engine) {
	t.Helper()
	clock := &ManualClock{}
	eng := conformanceEngine(t, policyName, estKind, simcore.NewStream(confSeed, "policy"), clock.Now, clock)
	var out []confDecision
	for _, ev := range events {
		clock.Set(ev.time)
		applyConfEvent(t, eng, ev, &out)
	}
	return out, eng
}

func ledgerExpiries(eng *Engine) []float64 {
	out := make([]float64, confServers)
	for i := range out {
		out[i] = eng.MappingExpiry(i)
	}
	return out
}

// TestSimLiveConformance asserts the unified-engine guarantee for
// every policy in the catalog, on both estimator kinds: the estimator
// seam must not leak an environment dependency either.
func TestSimLiveConformance(t *testing.T) {
	events := conformanceEvents()
	for _, estKind := range core.EstimatorKinds() {
		for _, policyName := range core.PolicyNames() {
			estKind, policyName := estKind, policyName
			t.Run(estKind+"/"+policyName, func(t *testing.T) {
				simDecisions, simEng := runSimPath(t, policyName, estKind, events)
				liveDecisions, liveEng := runLivePath(t, policyName, estKind, events)
				if len(simDecisions) != len(liveDecisions) {
					t.Fatalf("decision counts diverge: sim %d, live %d", len(simDecisions), len(liveDecisions))
				}
				for i := range simDecisions {
					if simDecisions[i] != liveDecisions[i] {
						s, l := simDecisions[i], liveDecisions[i]
						t.Fatalf("decision %d diverges: sim (domain %d → server %d, ttl %v, failed %v), live (domain %d → server %d, ttl %v, failed %v)",
							i,
							s.domain, s.server, math.Float64frombits(s.ttlBits), s.failed,
							l.domain, l.server, math.Float64frombits(l.ttlBits), l.failed)
					}
				}
				simLedger, liveLedger := ledgerExpiries(simEng), ledgerExpiries(liveEng)
				simSn, liveSn := simEng.State().Snapshot(), liveEng.State().Snapshot()
				for i := range simLedger {
					if math.Float64bits(simLedger[i]) != math.Float64bits(liveLedger[i]) {
						t.Errorf("ledger slot %d diverges: sim %v, live %v", i, simLedger[i], liveLedger[i])
					}
					if simSn.Member(i) != liveSn.Member(i) {
						t.Errorf("membership of slot %d diverges: sim %v, live %v", i, simSn.Member(i), liveSn.Member(i))
					}
				}
			})
		}
	}
}

// TestReplicaPairConformance asserts the multi-replica guarantee at
// lag zero: replica A runs the full conformance stream while replica B
// never decides anything and only merges A's deltas after every event.
// After the run, B's mapping ledger and standing flags must be
// bit-identical to A's, which in turn must match the single-engine
// reference — replication at lag 0 is invisible. A final B→A
// back-merge must change nothing (merge idempotence/commutativity).
// Membership is not gossiped (each replica's operator owns it), so the
// retire event runs on B as well.
func TestReplicaPairConformance(t *testing.T) {
	events := conformanceEvents()
	for _, policyName := range core.PolicyNames() {
		policyName := policyName
		t.Run(policyName, func(t *testing.T) {
			_, single := runLivePath(t, policyName, core.EstimatorReactive, events)
			singleLedger := ledgerExpiries(single)

			clock := &ManualClock{}
			a := conformanceEngine(t, policyName, core.EstimatorReactive, simcore.NewStream(confSeed, "policy"), clock.Now, clock)
			b := conformanceEngine(t, policyName, core.EstimatorReactive, simcore.NewStream(confSeed, "policy"), clock.Now, clock)
			var out []confDecision
			for _, ev := range events {
				clock.Set(ev.time)
				applyConfEvent(t, a, ev, &out)
				if err := b.MergeRemote(snapshotDelta(a)); err != nil {
					t.Fatalf("MergeRemote at t=%v: %v", ev.time, err)
				}
				if ev.kind == "retire" {
					applyConfEvent(t, b, ev, nil)
				}
			}

			aLedger, bLedger := ledgerExpiries(a), ledgerExpiries(b)
			for i := range aLedger {
				if math.Float64bits(aLedger[i]) != math.Float64bits(singleLedger[i]) {
					t.Errorf("replica A ledger slot %d diverges from single engine: %v vs %v",
						i, aLedger[i], singleLedger[i])
				}
				if math.Float64bits(bLedger[i]) != math.Float64bits(aLedger[i]) {
					t.Errorf("replica B ledger slot %d diverges from A after merge: %v vs %v",
						i, bLedger[i], aLedger[i])
				}
			}

			asn, bsn := a.State().Snapshot(), b.State().Snapshot()
			for i := 0; i < confServers; i++ {
				if asn.Alarmed(i) != bsn.Alarmed(i) || asn.Down(i) != bsn.Down(i) ||
					asn.Draining(i) != bsn.Draining(i) || asn.Member(i) != bsn.Member(i) {
					t.Errorf("server %d standing diverges: A (alarm %v down %v drain %v member %v), B (alarm %v down %v drain %v member %v)",
						i,
						asn.Alarmed(i), asn.Down(i), asn.Draining(i), asn.Member(i),
						bsn.Alarmed(i), bsn.Down(i), bsn.Draining(i), bsn.Member(i))
				}
			}

			if err := a.MergeRemote(snapshotDelta(b)); err != nil {
				t.Fatalf("back-merge B into A: %v", err)
			}
			for i, after := range ledgerExpiries(a) {
				if math.Float64bits(after) != math.Float64bits(aLedger[i]) {
					t.Errorf("back-merge moved A's ledger slot %d: %v → %v", i, aLedger[i], after)
				}
			}
		})
	}
}

// snapshotDelta is e's full mergeable soft state as one RemoteDelta:
// every non-zero ledger window and every member slot's standing, the
// engine-level content of replication.Node.Snapshot.
func snapshotDelta(e *Engine) RemoteDelta {
	sn := e.State().Snapshot()
	var d RemoteDelta
	for i := 0; i < sn.Cluster().N(); i++ {
		if exp := e.MappingExpiry(i); exp > 0 {
			d.Mappings = append(d.Mappings, RemoteMapping{Server: i, Expiry: exp})
		}
		if sn.Member(i) {
			d.Standing = append(d.Standing, RemoteStanding{
				Server: i, Alarmed: sn.Alarmed(i), Down: sn.Down(i), Draining: sn.Draining(i),
			})
		}
	}
	return d
}

// TestConformanceStreamExercisesOutcomes guards the stream itself: it
// must produce at least one decision for every live server and retire
// the drained slot, or the suite would silently conform on a trivial
// stream.
func TestConformanceStreamExercisesOutcomes(t *testing.T) {
	events := conformanceEvents()
	decisions, eng := runSimPath(t, "PRR2-TTL/K", core.EstimatorReactive, events)
	ledger := ledgerExpiries(eng)
	seen := make(map[int]int)
	for _, d := range decisions {
		if !d.failed {
			seen[d.server]++
		}
	}
	for i := 0; i < confServers; i++ {
		if seen[i] == 0 {
			t.Errorf("server %d never chosen; stream too weak", i)
		}
		if ledger[i] == 0 {
			t.Errorf("server %d ledger never extended", i)
		}
	}
	retired := -1
	for _, ev := range events {
		if ev.kind == "retire" {
			retired = ev.server
		}
	}
	if retired < 0 {
		t.Fatal("stream has no retire event")
	}
	if eng.State().Snapshot().Member(retired) {
		t.Errorf("server %d is still a member after its retire event", retired)
	}
}
