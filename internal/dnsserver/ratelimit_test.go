package dnsserver

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"dnslb/internal/core"
	"dnslb/internal/dnsclient"
	"dnslb/internal/dnswire"
)

func TestRateLimiterBasics(t *testing.T) {
	l := NewRateLimiter(10, 3)
	now := time.Unix(1000, 0)
	l.now = func() time.Time { return now }
	src := netip.MustParseAddr("192.0.2.1")

	// Burst of 3 allowed, 4th refused.
	for i := 0; i < 3; i++ {
		if !l.Allow(src) {
			t.Fatalf("query %d within burst refused", i)
		}
	}
	if l.Allow(src) {
		t.Fatal("burst exceeded but allowed")
	}
	// 100 ms at 10 qps refills one token.
	now = now.Add(100 * time.Millisecond)
	if !l.Allow(src) {
		t.Fatal("refilled token refused")
	}
	if l.Allow(src) {
		t.Fatal("double spend allowed")
	}
	// A different source has its own bucket.
	if !l.Allow(netip.MustParseAddr("192.0.2.2")) {
		t.Fatal("independent source refused")
	}
}

func TestRateLimiterTokensCapAtBurst(t *testing.T) {
	l := NewRateLimiter(100, 2)
	now := time.Unix(0, 0)
	l.now = func() time.Time { return now }
	src := netip.MustParseAddr("10.1.1.1")
	if !l.Allow(src) {
		t.Fatal("first refused")
	}
	// A long idle period must not bank more than `burst` tokens.
	now = now.Add(time.Hour)
	allowed := 0
	for i := 0; i < 10; i++ {
		if l.Allow(src) {
			allowed++
		}
	}
	if allowed != 2 {
		t.Errorf("allowed %d after idle, want burst cap 2", allowed)
	}
}

func TestRateLimiterInvalidAddrAlwaysAllowed(t *testing.T) {
	l := NewRateLimiter(1, 1)
	for i := 0; i < 5; i++ {
		if !l.Allow(netip.Addr{}) {
			t.Fatal("invalid address should bypass limiting")
		}
	}
}

func TestRateLimiterEviction(t *testing.T) {
	l := NewRateLimiter(1000, 1)
	now := time.Unix(0, 0)
	l.now = func() time.Time { return now }
	// One source slot per shard: every shard must evict on each new
	// address, so the tracked set stays bounded no matter how many
	// distinct sources probe the limiter.
	l.maxSources = rateShards
	for i := 0; i < 20*rateShards; i++ {
		addr := netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
		l.Allow(addr)
		now = now.Add(time.Second) // older entries refill and become evictable
	}
	if got := trackedSources(l); got > rateShards {
		t.Errorf("tracked sources = %d, want bounded by maxSources %d", got, rateShards)
	}
}

func TestRateLimiterDefaultsClamped(t *testing.T) {
	l := NewRateLimiter(-1, 0)
	if !l.Allow(netip.MustParseAddr("10.0.0.1")) {
		t.Error("first query should pass with clamped defaults")
	}
}

func TestServerRefusesOverLimit(t *testing.T) {
	cluster, err := core.ScaledCluster(3, 20, 300)
	if err != nil {
		t.Fatal(err)
	}
	state, err := core.NewState(cluster, 4)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := core.NewPolicy(core.PolicyConfig{Name: "RR", State: state})
	if err != nil {
		t.Fatal(err)
	}
	addrs := []netip.Addr{
		netip.MustParseAddr("10.0.0.1"),
		netip.MustParseAddr("10.0.0.2"),
		netip.MustParseAddr("10.0.0.3"),
	}
	srv, err := New(Config{
		Zone:        "www.site.example",
		ServerAddrs: addrs,
		Policy:      policy,
		Addr:        "127.0.0.1:0",
		RateLimit:   NewRateLimiter(1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	r := &dnsclient.Resolver{Server: srv.Addr().String(), Timeout: 2 * time.Second}
	ctx := context.Background()
	var refused, answered int
	for i := 0; i < 6; i++ {
		_, err := r.Exchange(ctx, "www.site.example", dnswire.TypeA)
		if err != nil {
			var rc *dnsclient.RCodeError
			if asRCode(err, &rc) && rc.RCode == dnswire.RCodeRefused {
				refused++
				continue
			}
			t.Fatal(err)
		}
		answered++
	}
	if refused == 0 {
		t.Fatal("no queries refused over the limit")
	}
	if answered == 0 {
		t.Fatal("burst should have been served")
	}
	if srv.Stats().RateLimited == 0 {
		t.Error("RateLimited counter not bumped")
	}
}

// TestRateLimiterMaxSourcesUnderChurn floods the limiter with distinct
// sources at a frozen clock, so no bucket ever refills and eviction
// must fall back to clearing full shards: the tracked set stays
// bounded by maxSources either way.
func TestRateLimiterMaxSourcesUnderChurn(t *testing.T) {
	l := NewRateLimiter(10, 1)
	now := time.Unix(0, 0)
	l.now = func() time.Time { return now }
	for i := 0; i < 100_000; i++ {
		addr := netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
		l.Allow(addr)
	}
	if got := trackedSources(l); got > l.maxSources {
		t.Errorf("tracked sources = %d, want <= %d", got, l.maxSources)
	}
	if got := trackedSources(l); got == 0 {
		t.Error("limiter forgot every source")
	}
}

// TestRateLimiterHotSourceSurvivesEviction: eviction prefers sources
// whose buckets have refilled (idle), so a source that keeps spending
// tokens must survive a churn of one-shot sources through its shard.
func TestRateLimiterHotSourceSurvivesEviction(t *testing.T) {
	l := NewRateLimiter(1, 2)
	now := time.Unix(0, 0)
	l.now = func() time.Time { return now }
	hot := netip.MustParseAddr("192.0.2.99")
	hotShard := l.shardFor(hot)
	l.maxSources = rateShards // shard cap 1: every insert evicts

	if !l.Allow(hot) {
		t.Fatal("hot source's first query refused")
	}
	for i := 0; i < 200; i++ {
		// The hot source spends roughly as fast as it refills, so its
		// bucket is never full; the churn sources go idle immediately
		// after their single query and refill to burst.
		now = now.Add(time.Second)
		if !l.Allow(hot) {
			t.Fatalf("hot source refused at step %d", i)
		}
		churn := netip.AddrFrom4([4]byte{172, 16, byte(i >> 8), byte(i)})
		if l.shardFor(churn) != hotShard {
			continue // only same-shard churn exercises this shard's eviction
		}
		now = now.Add(10 * time.Second) // churn source goes fully idle
		l.Allow(churn)
	}
	hotShard.mu.Lock()
	_, tracked := hotShard.buckets[hot]
	hotShard.mu.Unlock()
	if !tracked {
		t.Error("hot source evicted while actively spending")
	}
}

// TestRateLimiterClockBackward: a clock that jumps backward must not
// bank free tokens, mint refills, or panic — the bucket simply sees
// zero elapsed time until the clock catches back up.
func TestRateLimiterClockBackward(t *testing.T) {
	l := NewRateLimiter(1, 1)
	now := time.Unix(10_000, 0)
	l.now = func() time.Time { return now }
	src := netip.MustParseAddr("198.51.100.7")

	if !l.Allow(src) {
		t.Fatal("first query refused")
	}
	if l.Allow(src) {
		t.Fatal("burst exceeded but allowed")
	}
	// Jump an hour into the past: no refill may occur.
	now = now.Add(-time.Hour)
	for i := 0; i < 3; i++ {
		if l.Allow(src) {
			t.Fatal("backward clock minted tokens")
		}
	}
	// Eviction under a backward clock must also behave: idle time is
	// negative, nothing looks refilled, the shard falls back to a clear
	// rather than corrupting state.
	l.maxSources = rateShards
	for i := 0; i < 5*rateShards; i++ {
		l.Allow(netip.AddrFrom4([4]byte{203, 0, byte(i >> 8), byte(i)}))
	}
	if got := trackedSources(l); got > l.maxSources {
		t.Errorf("tracked sources = %d under backward clock, want <= %d", got, l.maxSources)
	}
	// Once the clock moves forward past the original timestamp the
	// bucket refills normally.
	now = now.Add(time.Hour + 2*time.Second)
	if !l.Allow(src) {
		t.Fatal("recovered clock did not refill")
	}
}

// trackedSources sums the shard maps: the number of source addresses
// the limiter tracks.
func trackedSources(l *RateLimiter) int {
	var n int
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		n += len(s.buckets)
		s.mu.Unlock()
	}
	return n
}
