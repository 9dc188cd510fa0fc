package dnsserver

import (
	"net/netip"
	"sync"
	"time"
)

// rateShards is the number of independently locked bucket maps. Source
// addresses are spread across shards by hash, so a flood from many
// sources contends on many locks instead of one. A power of two keeps
// the index a mask.
const rateShards = 16

// RateLimiter bounds queries per second per source address with a
// token bucket per source — protection against floods and reflection
// abuse for the public-facing DNS server. The bucket map is sharded
// 16-way by address hash; each shard has its own lock and eviction, so
// concurrent serve loops rarely contend. The zero value is unusable;
// create one with NewRateLimiter.
type RateLimiter struct {
	rate  float64 // tokens added per second
	burst float64 // bucket capacity

	// maxSources bounds tracked addresses across all shards; each
	// shard evicts at its share (maxSources/rateShards, at least 1).
	maxSources int
	now        func() time.Time
	shards     [rateShards]rateShard
}

type rateShard struct {
	mu      sync.Mutex
	buckets map[netip.Addr]*tokenBucket
	_       [24]byte // keep neighbouring shard locks off one cache line
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter creates a limiter allowing `rate` queries/second with
// bursts up to `burst` per source address. Non-positive values are
// raised to minimal sane defaults (1 qps, burst 1).
func NewRateLimiter(rate, burst float64) *RateLimiter {
	if rate <= 0 {
		rate = 1
	}
	if burst < 1 {
		burst = 1
	}
	l := &RateLimiter{
		rate:       rate,
		burst:      burst,
		maxSources: 4096,
		now:        time.Now,
	}
	for i := range l.shards {
		l.shards[i].buckets = make(map[netip.Addr]*tokenBucket)
	}
	return l
}

// shardFor picks the address's shard by addrHash.
func (l *RateLimiter) shardFor(addr netip.Addr) *rateShard {
	return &l.shards[addrHash(addr)&(rateShards-1)]
}

// shardCap is each shard's share of the source budget.
func (l *RateLimiter) shardCap() int {
	c := l.maxSources / rateShards
	if c < 1 {
		c = 1
	}
	return c
}

// Allow reports whether a query from addr may be served now, consuming
// one token if so. Invalid addresses are always allowed (they cannot
// be attributed to a source anyway).
func (l *RateLimiter) Allow(addr netip.Addr) bool {
	if !addr.IsValid() {
		return true
	}
	now := l.now()
	s := l.shardFor(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[addr]
	if !ok {
		if len(s.buckets) >= l.shardCap() {
			l.evictLocked(s, now)
		}
		b = &tokenBucket{tokens: l.burst, last: now}
		s.buckets[addr] = b
	}
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens += elapsed * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// evictLocked drops sources in one shard whose buckets have refilled
// (idle long enough to be indistinguishable from new sources); if none
// qualify it clears the shard, which only momentarily forgives the
// active abusers hashed there. Caller holds the shard's lock.
func (l *RateLimiter) evictLocked(s *rateShard, now time.Time) {
	for addr, b := range s.buckets {
		idle := now.Sub(b.last).Seconds()
		if b.tokens+idle*l.rate >= l.burst {
			delete(s.buckets, addr)
		}
	}
	if len(s.buckets) >= l.shardCap() {
		s.buckets = make(map[netip.Addr]*tokenBucket)
	}
}
