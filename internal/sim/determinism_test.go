package sim

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// fingerprint reduces a run's observable output — scheduler decisions,
// cache behaviour, event count, the full max-utilization series and
// per-server decision counts — to one hash, so any behavioural drift
// in the single-threaded path shows up as a mismatch.
func fingerprint(res *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d %d %d %d %d %v %v %.9f\n",
		res.AddressRequests, res.CacheHits, res.TotalHits, res.TotalPages,
		res.EventsFired, res.MaxUtil.Values(), res.Sched.PerServer, res.Sched.MeanTTL)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Golden fingerprints recorded from the pre-concurrency (single-mutex)
// implementation at seed 7, 900 s. The lock-free scheduler must keep
// single-threaded simulation output byte-identical: the paper's
// figures depend on it, and TestTraceReplayMatchesLiveRun-style replay
// equivalence does too.
const (
	goldenDRR2  = "c28908b60873ca8014fe94b473f0c10519ca23f94c96a8d4bf4f202a7314ecab"
	goldenPRR2K = "78897c26fef92290d53cfda682c7dcadd662a8738493742dafd34f107f34bfb7"
)

// Golden fingerprints of R > 1 runs, recorded at commit 85d24f7 — the
// last one that built replicated runs in an assembly of their own — by
// running Run on the two configs of TestReplicatedGolden and printing
// fingerprint(res): 3 replicas with lag and a partition window on
// oracle weights, and 2 estimator-driven replicas. The second is taken
// with EventsFired zeroed: the read-only estimator probe is installed
// at every R, which at that commit it was not for R > 1; it adds fired
// events and moves nothing else. The second was re-recorded when a
// domain with no evidence stopped getting a one-day TTL: its decision
// stream is unchanged up to the 23rd decision, which answered domain 1
// with 86 400 s before and 50.6 s after.
const (
	goldenReplDRR2     = "7b78d488bbdcd2e535e7419b7f0ffdb240eedba837ab8a8633f72013626bcf76"
	goldenReplPRR2KEst = "bff88c6593258dc1c740bd299d9aa65111bc7f5499e26316c458092b3a3b1482"
)

func goldenConfig(policy string) Config {
	cfg := DefaultConfig(policy)
	cfg.Duration = 900
	cfg.Seed = 7
	return cfg
}

// TestSingleThreadedDeterminismGolden asserts the simulator's
// single-threaded output is byte-identical to the pre-refactor
// implementation, for a deterministic (DRR2) and a probabilistic
// (PRR2, RNG-order-sensitive) policy.
func TestSingleThreadedDeterminismGolden(t *testing.T) {
	for _, tc := range []struct {
		policy string
		want   string
	}{
		{"DRR2-TTL/S_K", goldenDRR2},
		{"PRR2-TTL/K", goldenPRR2K},
	} {
		res, err := Run(goldenConfig(tc.policy))
		if err != nil {
			t.Fatalf("%s: %v", tc.policy, err)
		}
		if got := fingerprint(res); got != tc.want {
			t.Errorf("%s: output drifted from pre-refactor golden\n got %s\nwant %s",
				tc.policy, got, tc.want)
		}
	}
}

// TestReplicatedGolden pins the R>1 output the same way: replicas are
// one more dimension of the single assembly, and folding the former
// replicated assembly into it must not move a decision.
func TestReplicatedGolden(t *testing.T) {
	part := replicaCfg("DRR2-TTL/S_K", 3, 2)
	part.Partitions = []PartitionEvent{{Start: 400, End: 460}}
	res, err := Run(part)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(res); got != goldenReplDRR2 {
		t.Errorf("3 replicas, partition: output drifted\n got %s\nwant %s", got, goldenReplDRR2)
	}

	est := replicaCfg("PRR2-TTL/K", 2, 5)
	est.OracleWeights = false
	res, err = Run(est)
	if err != nil {
		t.Fatal(err)
	}
	res.EventsFired = 0
	if got := fingerprint(res); got != goldenReplPRR2KEst {
		t.Errorf("2 replicas, estimator: output drifted\n got %s\nwant %s", got, goldenReplPRR2KEst)
	}
}

// TestParallelReplicationsMatchSequential asserts the parallel
// replication runner produces the exact results of the sequential one,
// replication by replication and at every worker count — parallelism
// is a wall-clock optimization, never a behavioural one. The
// fingerprint covers EventsFired and every max-utilization sample (%v
// prints the shortest decimal that round-trips, so equal text means
// equal bits).
func TestParallelReplicationsMatchSequential(t *testing.T) {
	cfg := goldenConfig("PRR2-TTL/K")
	cfg.Duration = 300
	const reps = 4
	seq, err := RunReplications(cfg, reps)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		par, err := RunReplicationsParallel(cfg, reps, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers %d: parallel returned %d results, sequential %d", workers, len(par), len(seq))
		}
		for i := range seq {
			if got, want := fingerprint(par[i]), fingerprint(seq[i]); got != want {
				t.Errorf("workers %d, replication %d: parallel output %s != sequential %s", workers, i, got, want)
			}
		}
	}
}

// TestRunRepeatable asserts two identical runs in the same process
// produce identical output (no hidden shared state between runs).
func TestRunRepeatable(t *testing.T) {
	a, err := Run(goldenConfig("PRR2-TTL/K"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(goldenConfig("PRR2-TTL/K"))
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(a) != fingerprint(b) {
		t.Error("identical configs produced different output")
	}
}
