package dnsserver

import (
	"context"
	"math"
	"net/netip"
	"testing"
	"time"

	"dnslb/internal/core"
	"dnslb/internal/simcore"
)

func TestOverloadConfigValidation(t *testing.T) {
	for _, cfg := range []OverloadConfig{
		{QPSCeiling: -1},
		{QPSCeiling: 100, DegradedTTL: -1},
		{QPSCeiling: math.NaN()},
		{QPSCeiling: math.Inf(1)},
		{QPSCeiling: 100, DegradedTTL: math.NaN()},
		{QPSCeiling: 100, DegradedTTL: math.Inf(1)},
	} {
		if err := cfg.validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if (OverloadConfig{}).Enabled() {
		t.Error("zero config must be disabled")
	}
	if !(OverloadConfig{QPSCeiling: 10}).Enabled() {
		t.Error("a ceiling must report enabled")
	}
}

// handSampler drives a controller's sample by hand: each step credits
// qps×seconds queries to the counter and samples that many seconds
// after the previous sample.
func handSampler(srv *Server, c *overloadController) func(qps, seconds float64) {
	at := c.lastSample
	return func(qps, seconds float64) {
		srv.stats[0].c[cQueries].Add(uint64(qps * seconds))
		at = at.Add(time.Duration(seconds * float64(time.Second)))
		c.sample(at)
	}
}

// TestOverloadRateHysteresis drives the controller's sample() by hand,
// one second apart, against the constant hysteresis: overloadEnterTicks
// (2) samples over the ceiling enter, overloadExitTicks (5) samples
// under overloadExitRatio (0.8) of it leave.
func TestOverloadRateHysteresis(t *testing.T) {
	srv, _ := testServerNoStart(t, "RR")
	c := newOverloadController(srv, OverloadConfig{QPSCeiling: 100})
	step := handSampler(srv, c)
	tick := func(qps float64) { step(qps, 1) }

	// One over-ceiling sample is not enough...
	tick(200)
	if c.active() {
		t.Fatal("degraded after a single over-ceiling sample")
	}
	// ...and a calm sample resets the streak.
	tick(0)
	tick(200)
	if c.active() {
		t.Fatal("degraded after a broken streak")
	}
	// Two consecutive over-ceiling samples enter degraded mode.
	tick(200)
	if !c.active() {
		t.Fatal("not degraded after overloadEnterTicks over-ceiling samples")
	}
	if got := c.transitions.Load(); got != 1 {
		t.Fatalf("transitions = %d, want 1", got)
	}
	if got := c.rate(); got != 200 {
		t.Fatalf("sampled rate = %v, want 200", got)
	}

	// Below ceiling but above the exit ratio: still pinned degraded.
	for i := 0; i < 2*overloadExitTicks; i++ {
		tick(90)
	}
	if !c.active() {
		t.Fatal("left degraded mode in the hysteresis band")
	}
	// Fewer calm samples than overloadExitTicks do not exit, and an
	// intervening hot sample resets the exit streak.
	for i := 0; i < overloadExitTicks-1; i++ {
		tick(50)
	}
	tick(90)
	for i := 0; i < overloadExitTicks-1; i++ {
		tick(50)
	}
	if !c.active() {
		t.Fatal("exit streak survived a hot sample")
	}
	tick(50)
	if c.active() {
		t.Fatal("still degraded after overloadExitTicks calm samples")
	}
	if got := c.transitions.Load(); got != 2 {
		t.Fatalf("transitions = %d, want 2", got)
	}
}

// TestOverloadRateOverMeasuredInterval: a ticker drops ticks for a slow
// receiver, so a sample can land two seconds after the previous one.
// Two seconds of queries at 0.75× the ceiling are then 0.75× over the
// measured interval, not 1.5× over one tick: the controller never
// degrades.
func TestOverloadRateOverMeasuredInterval(t *testing.T) {
	srv, _ := testServerNoStart(t, "RR")
	c := newOverloadController(srv, OverloadConfig{QPSCeiling: 100})
	step := handSampler(srv, c)
	for i := 0; i < 2*overloadEnterTicks; i++ {
		step(75, 2)
		if c.active() {
			t.Fatalf("degraded at 0.75× the ceiling after %d late samples (rate %v)", i+1, c.rate())
		}
	}
	if got := c.rate(); got != 75 {
		t.Fatalf("sampled rate = %v, want 75", got)
	}
}

// testServerOverload builds and starts a server with the overload
// controller configured (huge ceiling: mode only changes when the test
// forces it, or overloadExitTicks seconds after that).
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

	if err := srv.eng.SetDown(3, true); err != nil {
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
	if srv.Degraded().Degraded {
		t.Fatal("Degraded().Degraded still true")
	}
}
