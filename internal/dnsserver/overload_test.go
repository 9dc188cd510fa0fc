package dnsserver

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"dnslb/internal/core"
	"dnslb/internal/simcore"
)

func TestOverloadConfigValidation(t *testing.T) {
	for _, cfg := range []OverloadConfig{
		{QPSCeiling: -1},
		{StaleRolls: -1},
		{QPSCeiling: 100, DegradedTTL: -1},
	} {
		if err := cfg.validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if (OverloadConfig{}).Enabled() {
		t.Error("zero config must be disabled")
	}
	if !(OverloadConfig{QPSCeiling: 10}).Enabled() || !(OverloadConfig{StaleRolls: 3}).Enabled() {
		t.Error("configured triggers must report enabled")
	}
}

// TestOverloadRateHysteresis drives the controller's sample() directly
// by crediting the query counter between samples. Tick is an hour so
// the background loop never interferes: each manual sample sees
// rate = delta/3600.
func TestOverloadRateHysteresis(t *testing.T) {
	srv, _ := testServerNoStart(t, "RR")
	c := newOverloadController(srv, OverloadConfig{
		QPSCeiling: 1,
		ExitRatio:  0.5,
		EnterTicks: 2,
		ExitTicks:  2,
		Tick:       time.Hour,
	})

	tick := func(qps float64) {
		srv.stats[0].queries.Add(uint64(qps * time.Hour.Seconds()))
		c.sample()
	}

	// One over-ceiling sample is not enough (EnterTicks = 2)...
	tick(2)
	if c.active() {
		t.Fatal("degraded after a single over-ceiling sample")
	}
	// ...and a calm sample resets the streak.
	tick(0)
	tick(2)
	if c.active() {
		t.Fatal("degraded after a broken streak")
	}
	// Two consecutive over-ceiling samples enter degraded mode.
	tick(2)
	if !c.active() {
		t.Fatal("not degraded after EnterTicks over-ceiling samples")
	}
	if got := c.transitions.Load(); got != 1 {
		t.Fatalf("transitions = %d, want 1", got)
	}
	if got := c.rate(); got != 2 {
		t.Fatalf("sampled rate = %v, want 2", got)
	}

	// Below ceiling but above ExitRatio*ceiling: still pinned degraded.
	tick(0.7)
	tick(0.7)
	tick(0.7)
	if !c.active() {
		t.Fatal("left degraded mode in the hysteresis band")
	}
	// A single calm sample does not exit (ExitTicks = 2)...
	tick(0.2)
	if !c.active() {
		t.Fatal("left degraded mode after one calm sample")
	}
	// ...and an intervening hot sample resets the exit streak.
	tick(0.7)
	tick(0.2)
	if !c.active() {
		t.Fatal("exit streak survived a hot sample")
	}
	tick(0.2)
	if c.active() {
		t.Fatal("still degraded after ExitTicks calm samples")
	}
	if got := c.transitions.Load(); got != 2 {
		t.Fatalf("transitions = %d, want 2", got)
	}
}

// TestOverloadStaleTrigger: replication degraded (no reachable peers)
// plus an estimator roll older than StaleRolls intervals enters
// degraded mode immediately; a fresh roll plus ExitTicks calm samples
// leaves it.
func TestOverloadStaleTrigger(t *testing.T) {
	srv, _ := testServerCfg(t, "RR", func(cfg *Config) {
		cfg.Replication = ReplicationConfig{
			ReplicaID: "stale-test",
			Peers:     []string{"127.0.0.1:1"}, // unreachable: Degraded() holds
			Interval:  20 * time.Millisecond,
		}
	})
	c := newOverloadController(srv, OverloadConfig{
		StaleRolls: 2,
		ExitTicks:  2,
		Tick:       time.Hour,
	})

	// Never rolled: cold, not stale.
	c.sample()
	if c.active() {
		t.Fatal("cold server treated as stale")
	}

	// Last roll 1s ago with a 100ms interval: 10 intervals > StaleRolls.
	srv.lastRoll.Store(time.Now().Add(-time.Second).UnixNano())
	srv.lastRollInterval.Store(floatBits(0.1))
	c.sample()
	if !c.active() {
		t.Fatal("stale soft state did not enter degraded mode")
	}

	// A fresh roll clears staleness; ExitTicks calm samples leave.
	srv.lastRoll.Store(time.Now().UnixNano())
	c.sample()
	c.sample()
	if c.active() {
		t.Fatal("still degraded after the estimator recovered")
	}
	if got := c.transitions.Load(); got != 2 {
		t.Fatalf("transitions = %d, want 2", got)
	}
}

// testServerOverload builds and starts a server with the overload
// controller configured (huge ceiling, long tick: mode only changes
// when the test forces it).
func testServerOverload(t *testing.T, degradedTTL float64) *Server {
	t.Helper()
	cluster, err := core.ScaledCluster(7, 50, 500)
	if err != nil {
		t.Fatal(err)
	}
	state, err := core.NewState(cluster, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := state.SetWeights(simcore.ZipfWeights(20, 1)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	policy, err := core.NewPolicy(core.PolicyConfig{
		Name:  "RR",
		State: state,
		Rand:  simcore.NewStream(1, "server"),
		Now:   func() float64 { return time.Since(start).Seconds() },
	})
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]netip.Addr, 7)
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)})
	}
	srv, err := New(Config{
		Zone:        "www.site.example",
		ServerAddrs: addrs,
		Policy:      policy,
		Addr:        "127.0.0.1:0",
		Overload: OverloadConfig{
			QPSCeiling:  1e12,
			Tick:        time.Hour,
			DegradedTTL: degradedTTL,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

// TestDegradedQueryPath forces degraded mode and checks the paper's
// "dumber but always on" contract: NOERROR answers from the static
// capacity-weighted ladder with the short degraded TTL, zero SERVFAIL,
// and normal service restored on exit.
func TestDegradedQueryPath(t *testing.T) {
	srv := testServerOverload(t, 7)
	res := resolverFor(t, srv)
	ctx := context.Background()

	healthyTTL := time.Duration(0)
	if ans, err := res.LookupA(ctx, "www.site.example"); err != nil {
		t.Fatal(err)
	} else {
		healthyTTL = ans[0].TTL
	}

	if err := srv.SetDown(3, true); err != nil {
		t.Fatal(err)
	}
	srv.over.degraded.Store(true)

	counts := make(map[netip.Addr]int)
	const lookups = 300
	for i := 0; i < lookups; i++ {
		ans, err := res.LookupA(ctx, "www.site.example")
		if err != nil {
			t.Fatalf("lookup %d in degraded mode: %v", i, err)
		}
		if got := ans[0].TTL; got != 7*time.Second {
			t.Fatalf("degraded TTL = %v, want 7s", got)
		}
		counts[ans[0].Addr]++
	}

	if got := srv.Stats().ServFail; got != 0 {
		t.Fatalf("SERVFAIL count = %d in degraded mode, want 0", got)
	}
	if got := srv.Degraded().Answers; got != lookups {
		t.Fatalf("degraded answers = %d, want %d", got, lookups)
	}

	// The static ladder is capacity-weighted: the largest member gets
	// more handouts than the smallest, the down server gets none.
	// ScaledCluster(7, 50, ...) capacities are {1, 1, .8, .8, .5, .5, .5}.
	if counts[netip.AddrFrom4([4]byte{10, 0, 0, 4})] != 0 {
		t.Fatal("down server handed out in degraded mode")
	}
	small := counts[netip.AddrFrom4([4]byte{10, 0, 0, 7})]
	large := counts[netip.AddrFrom4([4]byte{10, 0, 0, 1})]
	if small == 0 || large <= small {
		t.Fatalf("weighted ladder shares: smallest=%d largest=%d", small, large)
	}

	// Leaving degraded mode restores the adaptive path (policy TTL).
	srv.over.degraded.Store(false)
	ans, err := res.LookupA(ctx, "www.site.example")
	if err != nil {
		t.Fatal(err)
	}
	if ans[0].TTL != healthyTTL {
		t.Logf("note: healthy TTL changed %v -> %v (policy-dependent, not fatal)", healthyTTL, ans[0].TTL)
	}
	if srv.DegradedMode() {
		t.Fatal("DegradedMode still true")
	}
}
