// Package nameserver models the client-side name servers (NS) of the
// paper: each connected domain has a local NS that caches the Web
// site's name-to-address mapping for the TTL chosen by the site's DNS
// — or for its own minimum when it considers the proposed TTL too
// small (the "non-cooperative" behaviour studied in Figures 4 and 5).
package nameserver

import "fmt"

// Cache is one domain's name server cache for a single name (the Web
// site's URL). It is driven by virtual or wall-clock time supplied by
// the caller.
type Cache struct {
	minTTL float64

	server  int
	expire  float64
	valid   bool
	hits    uint64
	misses  uint64
	clamped uint64
}

// New creates a cache. minTTL is the lowest TTL this NS accepts: a
// proposed TTL below it is replaced by minTTL (0 models a fully
// cooperative NS that honours any TTL).
func New(minTTL float64) (*Cache, error) {
	if minTTL < 0 {
		return nil, fmt.Errorf("nameserver: negative minimum TTL %v", minTTL)
	}
	return &Cache{minTTL: minTTL}, nil
}

// Lookup returns the cached server if the mapping is still valid at
// time now. ok is false on a cache miss (expired or never stored); the
// caller must then ask the site's DNS and Store the answer.
func (c *Cache) Lookup(now float64) (server int, ok bool) {
	if c.valid && now < c.expire {
		c.hits++
		return c.server, true
	}
	c.misses++
	return 0, false
}

// Store caches the mapping decided by the DNS at time now and returns
// the TTL the NS actually applies: max(ttl, minTTL). Non-positive TTLs
// are also raised to the minimum (or dropped entirely when the NS has
// no minimum).
func (c *Cache) Store(now float64, server int, ttl float64) float64 {
	effective := ttl
	if effective < c.minTTL {
		effective = c.minTTL
		c.clamped++
	}
	if effective <= 0 {
		// A cooperative NS given TTL <= 0 does not cache at all.
		c.valid = false
		return 0
	}
	c.server = server
	c.expire = now + effective
	c.valid = true
	return effective
}

// Stats reports cache effectiveness counters.
type Stats struct {
	Hits    uint64 // lookups answered from cache
	Misses  uint64 // lookups forwarded to the site's DNS
	Clamped uint64 // stores whose TTL was raised to the NS minimum
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits, Misses: c.misses, Clamped: c.clamped}
}
