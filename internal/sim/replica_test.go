package sim

import (
	"math"
	"testing"

	"dnslb/internal/core"
)

// replicaCfg is a short replicated run: R replicas gossiping every 8
// virtual seconds with the given delivery lag.
func replicaCfg(policy string, replicas int, lag float64) Config {
	cfg := DefaultConfig(policy)
	cfg.Duration = 1800
	cfg.Warmup = 100
	cfg.Replicas = replicas
	cfg.ReplicationInterval = 8
	cfg.ReplicaLag = lag
	return cfg
}

func TestReplicaValidation(t *testing.T) {
	cfg := DefaultConfig("RR")
	cfg.Replicas = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative Replicas should error")
	}
	cfg.Replicas = 2
	if err := cfg.Validate(); err == nil {
		t.Error("Replicas > 1 without ReplicationInterval should error")
	}
	cfg.ReplicationInterval = 8
	cfg.ReplicaLag = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative ReplicaLag should error")
	}
	cfg.ReplicaLag = 0
	cfg.Partitions = []PartitionEvent{{Start: 100, End: 100}}
	if err := cfg.Validate(); err == nil {
		t.Error("empty partition window should error")
	}
	cfg.Partitions = []PartitionEvent{{Start: 100, End: 130}}
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid replicated config rejected: %v", err)
	}
	cfg.Replicas = 1
	if err := cfg.Validate(); err == nil {
		t.Error("Partitions without Replicas > 1 should error")
	}
}

func TestReplicatedRunConverges(t *testing.T) {
	// Two replicas at lag 0: every domain resolves, both replicas make
	// decisions for their half of the namespace, deltas flow and apply,
	// and the replica views stay within one gossip round of each other.
	cfg := replicaCfg("DRR2-TTL/S_K", 2, 0)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedResolves != 0 {
		t.Errorf("replicated run refused %d resolves", res.FailedResolves)
	}
	if len(res.ReplDecisions) != 2 {
		t.Fatalf("ReplDecisions = %v, want 2 entries", res.ReplDecisions)
	}
	var total uint64
	for r, n := range res.ReplDecisions {
		if n == 0 {
			t.Errorf("replica %d made no decisions", r)
		}
		total += n
	}
	if total != res.Sched.Decisions {
		t.Errorf("per-replica decisions sum %d != aggregate %d", total, res.Sched.Decisions)
	}
	if res.ReplDeltasApplied == 0 {
		t.Error("no deltas ever applied between replicas")
	}
	// The ledger views can differ only by entries created since the
	// last exchange: one gossip round plus the TTL spread of in-flight
	// decisions. 10 intervals is a deliberately loose ceiling — the
	// point is bounded staleness, not tightness.
	if res.ReplLedgerDivergenceSec > 10*cfg.ReplicationInterval+cfg.ConstantTTL {
		t.Errorf("ledger divergence %.1fs not bounded by gossip cadence", res.ReplLedgerDivergenceSec)
	}
	// Oracle weights are seeded identically and never re-estimated.
	if res.ReplMaxWeightDiff != 0 {
		t.Errorf("oracle-weight replicas diverged in weights by %v", res.ReplMaxWeightDiff)
	}
}

func TestReplicatedPartitionKeepsAnswering(t *testing.T) {
	// Cut every inter-replica link for 30s mid-run. Both replicas must
	// keep answering from local state (zero refused resolves, decisions
	// on both sides), and healing must trigger full anti-entropy.
	cfg := replicaCfg("DRR2-TTL/S_K", 2, 1)
	cfg.Partitions = []PartitionEvent{{Start: 600, End: 630}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedResolves != 0 {
		t.Errorf("partitioned replicas refused %d resolves", res.FailedResolves)
	}
	for r, n := range res.ReplDecisions {
		if n == 0 {
			t.Errorf("replica %d made no decisions across the partition", r)
		}
	}
	if res.ReplFullSyncs < 2 {
		// One snapshot per replica at first contact; the heal adds one
		// more round, so at least the initial pair must have happened.
		t.Errorf("ReplFullSyncs = %d, want >= 2 (initial + post-heal anti-entropy)", res.ReplFullSyncs)
	}
	if res.ReplDeltasApplied == 0 {
		t.Error("no deltas applied after heal")
	}

	// The same run without the partition must apply at least as many
	// deltas: cut rounds drop their flushes on the floor.
	cfg.Partitions = nil
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean.FailedResolves != 0 {
		t.Errorf("clean replicated run refused %d resolves", clean.FailedResolves)
	}
}

func TestReplicatedEstimatorDrift(t *testing.T) {
	// Under the dynamic estimator each replica sees only its servers'
	// hit reports directly and learns the rest via gossip, so weight
	// views drift — but must stay finite and the run must stay healthy.
	cfg := replicaCfg("PRR2-TTL/K", 2, 5)
	cfg.OracleWeights = false
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedResolves != 0 {
		t.Errorf("estimator-driven replicated run refused %d resolves", res.FailedResolves)
	}
	if math.IsNaN(res.ReplMaxWeightDiff) || math.IsInf(res.ReplMaxWeightDiff, 0) {
		t.Errorf("weight divergence not finite: %v", res.ReplMaxWeightDiff)
	}
	if res.ReplDeltasApplied == 0 {
		t.Error("no deltas applied in estimator-driven run")
	}
}

func TestReplicatedRunDeterminism(t *testing.T) {
	cfg := replicaCfg("DRR2-TTL/S_K", 3, 2)
	cfg.Partitions = []PartitionEvent{{Start: 400, End: 460}}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sched.Decisions != b.Sched.Decisions ||
		a.ReplDeltasApplied != b.ReplDeltasApplied ||
		a.ReplFullSyncs != b.ReplFullSyncs ||
		a.ReplMaxWeightDiff != b.ReplMaxWeightDiff ||
		a.ReplLedgerDivergenceSec != b.ReplLedgerDivergenceSec ||
		a.TotalHits != b.TotalHits {
		t.Errorf("replicated runs of the same seed diverged:\n%+v\n%+v", a, b)
	}
	for r := range a.ReplDecisions {
		if a.ReplDecisions[r] != b.ReplDecisions[r] {
			t.Errorf("replica %d decisions %d vs %d across identical runs", r, a.ReplDecisions[r], b.ReplDecisions[r])
		}
	}
}

func TestSingleReplicaIsSinglePath(t *testing.T) {
	// Replicas 0 and 1 are a replica set of one and must match a run
	// that never set the field, to the byte — the replication extension
	// must not perturb the paper's assembly.
	base := DefaultConfig("RR2")
	base.Duration = 900
	base.Warmup = 60
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{0, 1} {
		cfg := base
		cfg.Replicas = r
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fingerprint(res), fingerprint(ref); got != want {
			t.Errorf("Replicas=%d diverged from the unset run: %s != %s", r, got, want)
		}
		if res.MeanResponseTime != ref.MeanResponseTime {
			t.Errorf("Replicas=%d mean response time %v != %v", r, res.MeanResponseTime, ref.MeanResponseTime)
		}
		if res.ReplDecisions != nil || res.ReplDeltasApplied != 0 {
			t.Errorf("Replicas=%d populated replication metrics", r)
		}
	}
}

func TestReplicatedDecisionTap(t *testing.T) {
	// The caller's tap sees every replica's decisions, not only those
	// of a single-DNS run.
	cfg := replicaCfg("DRR2-TTL/S_K", 3, 2)
	var tapped uint64
	cfg.DecisionTap = func(int, core.Decision) { tapped++ }
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var perReplica uint64
	for _, n := range res.ReplDecisions {
		perReplica += n
	}
	if tapped == 0 || tapped != res.Sched.Decisions || tapped != perReplica {
		t.Errorf("tap saw %d decisions; scheduler made %d, replicas sum to %d",
			tapped, res.Sched.Decisions, perReplica)
	}
}
