package sim

import (
	"testing"

	"dnslb/internal/core"
	"dnslb/internal/simcore"
)

// Every sim axis runs at every replica count: faults, detection and
// drains at the affected server's authority replica (i mod R), flash
// crowds and ECS misalignment at the domain's (d mod R).

// axisCfg is a short two-replica run with lag.
func axisCfg() Config {
	cfg := replicaCfg("DRR2-TTL/S_K", 2, 2)
	cfg.Duration = 1500
	return cfg
}

// The five axes, each touching a server or domain owned by replica 1,
// so none of them runs where replica 0 alone would have seen it.
var axes = []struct {
	name  string
	apply func(*Config)
}{
	{"faults", func(c *Config) { c.Faults = append(c.Faults, Outage(1, 400, 300)...) }},
	{"detection", func(c *Config) {
		c.Faults = append(c.Faults, Outage(3, 500, 200)...)
		c.Detection = &DetectionConfig{Kind: DetectProbe, Interval: 2, FailN: 3, RiseM: 2}
	}},
	{"drains", func(c *Config) { c.Drains = []DrainEvent{{Time: 600, Server: 5}} }},
	{"flash", func(c *Config) {
		c.FlashCrowds = []FlashEvent{{Time: 700, Domain: 1, Clients: 150, Resolvers: 20, Duration: 300}}
	}},
	{"ecs", func(c *Config) { c.ECSMisalign = &ECSMisalignConfig{Fraction: 0.5, UseECS: true} }},
}

// allAxes is axisCfg with all five axes on.
func allAxes() Config {
	cfg := axisCfg()
	for _, ax := range axes {
		ax.apply(&cfg)
	}
	return cfg
}

// checkAxes asserts each enabled axis left its mark on the run.
func checkAxes(t *testing.T, cfg Config, res *Result) {
	t.Helper()
	if len(cfg.Faults) > 0 && res.DeadServerHits == 0 {
		t.Error("a crash cost no dead-server hits")
	}
	if cfg.Detection != nil {
		crashes := uint64(0)
		for _, ev := range cfg.Faults {
			if ev.Down {
				crashes++
			}
		}
		if res.DetectedCrashes != crashes {
			t.Errorf("DetectedCrashes = %d, want %d", res.DetectedCrashes, crashes)
		}
		if res.MeanDetectionDelay <= 0 {
			t.Errorf("MeanDetectionDelay = %v, want > 0", res.MeanDetectionDelay)
		}
	}
	if len(cfg.Drains) > 0 {
		if res.DrainedServerHits == 0 {
			t.Error("the drained server carried no hidden load while draining")
		}
		// No new mapping after the drain and none of its load after the
		// retirement (which TestPeerLearnsStandingByGossip checks
		// directly): its mean utilization stays far below a server that
		// served the whole run.
		if u := res.MeanServerUtil[cfg.Drains[0].Server]; u >= res.MeanServerUtil[0]/2 {
			t.Errorf("drained server's mean utilization %.3f, want below half of server 0's %.3f",
				u, res.MeanServerUtil[0])
		}
	}
	if cfg.ECSMisalign != nil {
		if res.ECSQueries == 0 || res.ECSCarried != res.ECSQueries {
			t.Errorf("ECS carried on %d of %d queries", res.ECSCarried, res.ECSQueries)
		}
		if res.ECSMisrouted != 0 {
			t.Errorf("ECS run misrouted %d decisions, want 0", res.ECSMisrouted)
		}
	}
	if res.FailedResolves != 0 {
		t.Errorf("%d resolves refused", res.FailedResolves)
	}
	for r, n := range res.ReplDecisions {
		if n == 0 {
			t.Errorf("replica %d made no decisions", r)
		}
	}
}

// TestReplicatedAxes runs each axis alone and all five together at
// R = 2: twice each, with equal fingerprints, and each axis sane.
func TestReplicatedAxes(t *testing.T) {
	for i := 0; i <= len(axes); i++ {
		name, cfg := "all", allAxes()
		if i < len(axes) {
			name, cfg = axes[i].name, axisCfg()
			axes[i].apply(&cfg)
		}
		t.Run(name, func(t *testing.T) {
			a, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fa, fb := fingerprint(a), fingerprint(b); fa != fb {
				t.Errorf("two runs diverged: %s != %s", fa, fb)
			}
			checkAxes(t, cfg, a)
		})
	}
}

// Golden fingerprints of the every-axis runs. goldenAxesR1 was
// recorded before Validate accepted these axes at Replicas > 1, and
// pins that lifting the refusals moved nothing at R = 1; goldenAxesR2
// pins the R = 2 assembly.
const (
	goldenAxesR1 = "9f03b465b4dce2a0ce2a2f304e9e12dd6bce1f67ee46ddad7cb7f59e59b595c6"
	goldenAxesR2 = "815fe8ac6554b26b0548c92be54487ed1b0c4413b33c35d624d66d8d7cef0aed"
)

// axesR1Cfg is the single-DNS run of goldenAxesR1: instant-knowledge
// faults, a drain, a flash crowd and ECS misalignment.
func axesR1Cfg() Config {
	cfg := goldenConfig("PRR2-TTL/K")
	cfg.Faults = append(Outage(1, 200, 300), Outage(4, 650, 100)...)
	cfg.Drains = []DrainEvent{{Time: 450, Server: 5}}
	cfg.FlashCrowds = []FlashEvent{{Time: 300, Domain: 2, Clients: 120, Resolvers: 15, Duration: 400}}
	cfg.ECSMisalign = &ECSMisalignConfig{Fraction: 0.4}
	return cfg
}

func TestAxesGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"R=1", axesR1Cfg(), goldenAxesR1},
		{"R=2", allAxes(), goldenAxesR2},
	} {
		res, err := Run(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := fingerprint(res); got != tc.want {
			t.Errorf("%s: output drifted from golden\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// TestPeerLearnsStandingByGossip drives the fault and drain injectors
// and the replica exchange without traffic: server 1 is crashed and
// server 3 drained at their authority, replica 1. Replica 0 must see
// both within one ReplicationInterval + ReplicaLag, and the drain must
// wait for a mapping replica 0 handed out before it heard of it.
func TestPeerLearnsStandingByGossip(t *testing.T) {
	cfg := axisCfg()
	cfg.ReplicationInterval, cfg.ReplicaLag = 8, 2
	const crashAt, drainAt = 101, 203
	cfg.Faults = Outage(1, crashAt, 500)
	cfg.Drains = []DrainEvent{{Time: drainAt, Server: 3}}
	cluster, err := core.ScaledCluster(cfg.Servers, cfg.HeterogeneityPct, cfg.TotalCapacity)
	if err != nil {
		t.Fatal(err)
	}
	sc := simcore.New(cfg.Seed)
	replicas, err := newReplicas(cfg, cluster, sc, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	var failed error
	fail := func(err error) {
		if failed == nil {
			failed = err
		}
	}
	horizon := 2000.0
	(&replicaExchange{sim: sc, cfg: cfg, replicas: replicas, fail: fail, horizon: horizon}).install()
	(&faultInjector{sim: sc, replicas: replicas, recov: newDrainTracker(cfg.Servers), fail: fail}).install(cfg.Faults)
	(&drainInjector{sim: sc, replicas: replicas, fail: fail}).install(cfg.Drains)

	// Replica 0 maps domains to server 3 until it learns of the drain;
	// the last such mapping's window is what the drain must outlive.
	peer, owner := replicas[0], replicas[1]
	var lastExpiry float64
	for at := 150.0; at < drainAt+cfg.ReplicationInterval+cfg.ReplicaLag; at += 5 {
		sc.ScheduleAt(at, func() {
			for d := 0; d < cfg.Workload.Domains; d += 2 {
				dec, err := peer.eng.Decide(d)
				if err != nil {
					fail(err)
					return
				}
				if dec.Server == 3 {
					lastExpiry = max(lastExpiry, sc.Now()+dec.TTL)
				}
			}
		})
	}
	bound := cfg.ReplicationInterval + cfg.ReplicaLag
	check := func(at float64, what string, ok func() bool) {
		sc.ScheduleAt(at, func() {
			if !ok() {
				t.Errorf("t=%v: %s", at, what)
			}
		})
	}
	check(crashAt, "the owner did not apply the crash", func() bool { return owner.state.Snapshot().Down(1) })
	check(crashAt, "the peer knew of the crash before any gossip", func() bool { return !peer.state.Snapshot().Down(1) })
	check(crashAt+bound, "the peer did not learn of the crash within one round plus lag",
		func() bool { return peer.state.Snapshot().Down(1) })
	check(drainAt, "the owner did not apply the drain", func() bool { return owner.state.Snapshot().Draining(3) })
	check(drainAt+bound, "the peer did not learn of the drain within one round plus lag",
		func() bool { return peer.state.Snapshot().Draining(3) })
	retiredAt := -1.0
	for at := float64(drainAt); at < horizon; at++ {
		sc.ScheduleAt(at, func() {
			if retiredAt < 0 && !owner.state.Snapshot().Member(3) {
				retiredAt = at
			}
		})
	}
	sc.Run(horizon)
	if failed != nil {
		t.Fatal(failed)
	}
	if lastExpiry <= drainAt {
		t.Fatalf("the peer handed server 3 no mapping that outlives the drain (last window %v)", lastExpiry)
	}
	if retiredAt < 0 {
		t.Error("the owner never retired the drained server")
	} else if retiredAt < lastExpiry {
		t.Errorf("the owner retired server 3 at %v, before the peer's mapping to it expired at %v", retiredAt, lastExpiry)
	}
	if peer.state.Snapshot().Down(1) {
		t.Error("the peer never learned of the recovery")
	}
}
