package dnsserver

import (
	"context"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"dnslb/internal/dnswire"
	"dnslb/internal/engine"
)

// A dual-stack socket reports an IPv4 peer as ::ffff:a.b.c.d. The
// server must treat that and the plain form as one resolver: same
// domain (PrefixHashMapper would otherwise hash the mapping's six zero
// bytes and put every IPv4 resolver in one domain), same stats shard,
// same rate-limiter bucket.

// recordingMapper is PrefixHashMapper(domains) that records the
// addresses it was asked about.
type recordingMapper struct {
	mu   sync.Mutex
	seen []netip.Addr
}

func (m *recordingMapper) mapper(domains int) DomainMapper {
	hash := PrefixHashMapper(domains)
	return func(a netip.Addr) int {
		m.mu.Lock()
		m.seen = append(m.seen, a)
		m.mu.Unlock()
		return hash(a)
	}
}

func (m *recordingMapper) take() []netip.Addr {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := m.seen
	m.seen = nil
	return seen
}

func TestMappedIPv4IsOneResolver(t *testing.T) {
	const domains = 20
	var rec recordingMapper
	srv, _ := testServerCfg(t, "RR", func(cfg *Config) {
		cfg.Mapper = rec.mapper(domains)
		cfg.RateLimit = NewRateLimiter(1e-9, 1) // one query per source, ever
	})
	hash := PrefixHashMapper(domains)
	query := zoneQuery(t, netip.Prefix{})
	ask := func(from netip.Addr) (rcode dnswire.RCode, mapped []netip.Addr) {
		t.Helper()
		out := srv.handle(query, from, engine.TransportUDP, dnswire.MaxUDPPayload, nil)
		if out == nil {
			t.Fatalf("query from %v dropped", from)
		}
		return dnswire.RCode(out[3] & 0xF), rec.take()
	}

	spread := make(map[int]bool)
	for i := 0; i < 200; i++ {
		plain := netip.AddrFrom4([4]byte{198, byte(18 + i/100), byte(i), 7})
		mapped := netip.AddrFrom16(plain.As16())
		if !mapped.Is4In6() {
			t.Fatalf("%v is not a mapped address", mapped)
		}
		// The mapped form arrives first and takes the source's one token;
		// the plain form must find the same bucket empty.
		rcode, seen := ask(mapped)
		if rcode != dnswire.RCodeNoError || len(seen) != 1 || seen[0] != plain {
			t.Fatalf("mapped %v: rcode=%v, mapper saw %v, want NOERROR and %v", mapped, rcode, seen, plain)
		}
		spread[hash(seen[0])] = true
		if rcode, _ := ask(plain); rcode != dnswire.RCodeRefused {
			t.Fatalf("plain %v after its mapped form: rcode=%v, want REFUSED (one limiter bucket)", plain, rcode)
		}
	}
	// 200 distinct /24s over 20 domains: a collapse to one domain is the
	// bug; anything close to all 20 is a working hash.
	if len(spread) < domains*3/4 {
		t.Errorf("200 mapped /24s landed in %d of %d domains", len(spread), domains)
	}
	// Both forms of every source were counted, on the same stats shard.
	if got := srv.Stats(); got.Queries != 400 || got.RateLimited != 200 {
		t.Errorf("stats: %d queries, %d rate-limited, want 400 and 200", got.Queries, got.RateLimited)
	}
}

// TestWildcardListenClassifiesTransportsAlike: on a wildcard listen
// address (a dual-stack socket where the host has IPv6) UDP and TCP
// queries from 127.0.0.1 reach the mapper as the same plain address.
func TestWildcardListenClassifiesTransportsAlike(t *testing.T) {
	var rec recordingMapper
	srv, _ := testServerCfg(t, "RR", func(cfg *Config) {
		cfg.Mapper = rec.mapper(20)
		cfg.Addr = ":0"
	})
	bound := srv.Addr()
	if bound.Addr().Is4() {
		t.Skipf("wildcard bound %v: no IPv6 on this host, nothing is mapped", bound)
	}
	target := netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), bound.Port()).String()

	r := resolverFor(t, srv)
	r.Server = target
	for i := 0; i < 2; i++ {
		if _, err := r.LookupA(context.Background(), "www.site.example"); err != nil {
			t.Fatalf("udp query %d: %v", i, err)
		}
	}
	conn, err := net.Dial("tcp4", target)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frameTCP(testQueryWire(t))); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := readTCPResponse(conn); err != nil {
		t.Fatalf("tcp query: %v", err)
	}

	want := netip.MustParseAddr("127.0.0.1")
	seen := rec.take()
	if len(seen) != 3 {
		t.Fatalf("mapper consulted %d times for 3 queries: %v", len(seen), seen)
	}
	for i, a := range seen {
		if a != want {
			t.Errorf("query %d classified as %v, want %v (UDP, UDP, TCP alike)", i, a, want)
		}
	}
}
