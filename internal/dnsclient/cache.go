package dnsclient

import (
	"context"
	"errors"
	"sync"
	"time"

	"dnslb/internal/dnswire"
)

// CachingNS is a caching name server in front of a Resolver: the
// real-network counterpart of one connected domain's local NS in the
// paper. It caches each name's A answer for the TTL the authority
// chose — raised to MinTTL when configured non-cooperatively.
type CachingNS struct {
	resolver *Resolver
	// minTTL is the lowest TTL this NS accepts (0 = cooperative).
	minTTL time.Duration
	// now is the clock, overridable in tests.
	now func() time.Time

	mu      sync.Mutex
	entries map[string]cacheEntry
	stats   CacheStats
}

type cacheEntry struct {
	answers []AnswerA
	expire  time.Time
	// negative marks a cached NXDOMAIN/no-data result (RFC 2308): the
	// cache answers with the original error until expire.
	negative bool
	rcode    dnswire.RCode
}

// CacheStats counts cache effectiveness.
type CacheStats struct {
	Hits    uint64
	Misses  uint64
	Clamped uint64
	// NegativeHits counts lookups answered from a cached NXDOMAIN or
	// no-data result (RFC 2308 negative caching).
	NegativeHits uint64
}

// negativeTTL bounds how long a negative result is cached; real
// resolvers use the zone SOA minimum, which this reproduction's
// authoritative server sets to 60 s.
const negativeTTL = 60 * time.Second

// NewCachingNS creates a caching NS over the given resolver. minTTL
// models the non-cooperative behaviour studied by the paper's Figures
// 4 and 5; pass 0 for a fully cooperative NS.
func NewCachingNS(resolver *Resolver, minTTL time.Duration) *CachingNS {
	return &CachingNS{
		resolver: resolver,
		minTTL:   minTTL,
		now:      time.Now,
		entries:  make(map[string]cacheEntry),
	}
}

// Stats returns a snapshot of the counters.
func (c *CachingNS) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Flush drops every cached entry.
func (c *CachingNS) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]cacheEntry)
}

// LookupA resolves the name, answering from cache while the stored
// mapping's effective TTL has not lapsed. fromCache reports whether
// the answer was served locally.
func (c *CachingNS) LookupA(ctx context.Context, name string) (answers []AnswerA, fromCache bool, err error) {
	key := cacheKey(name)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok && c.now().Before(e.expire) {
		if e.negative {
			c.stats.NegativeHits++
			rcode := e.rcode
			c.mu.Unlock()
			if rcode == dnswire.RCodeNoError {
				return nil, true, ErrNoAnswer
			}
			return nil, true, &RCodeError{RCode: rcode}
		}
		c.stats.Hits++
		out := make([]AnswerA, len(e.answers))
		copy(out, e.answers)
		c.mu.Unlock()
		return out, true, nil
	}
	c.stats.Misses++
	c.mu.Unlock()

	answers, err = c.resolver.LookupA(ctx, name)
	if err != nil {
		// RFC 2308: authoritative negative answers (NXDOMAIN, or
		// NOERROR with no data) are cached so repeated misses do not
		// hammer the upstream. Transport errors are never cached.
		var rcErr *RCodeError
		if errors.As(err, &rcErr) && rcErr.RCode == dnswire.RCodeNXDomain {
			c.storeNegative(key, rcErr.RCode)
		} else if errors.Is(err, ErrNoAnswer) {
			c.storeNegative(key, dnswire.RCodeNoError)
		}
		return nil, false, err
	}
	ttl := answers[0].TTL
	for _, a := range answers[1:] {
		if a.TTL < ttl {
			ttl = a.TTL
		}
	}
	c.mu.Lock()
	if ttl < c.minTTL {
		ttl = c.minTTL
		c.stats.Clamped++
	}
	if ttl > 0 {
		stored := make([]AnswerA, len(answers))
		copy(stored, answers)
		c.entries[key] = cacheEntry{answers: stored, expire: c.now().Add(ttl)}
	}
	c.mu.Unlock()
	return answers, false, nil
}

// cacheKey normalizes names the same way the resolver does on the
// wire, so "WWW.Site.Example" and "www.site.example." share an entry.
func cacheKey(name string) string {
	return dnswire.CanonicalName(name)
}

// storeNegative caches a negative result for the RFC 2308 window.
func (c *CachingNS) storeNegative(key string, rcode dnswire.RCode) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[key] = cacheEntry{
		negative: true,
		rcode:    rcode,
		expire:   c.now().Add(negativeTTL),
	}
}
