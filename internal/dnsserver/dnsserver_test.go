package dnsserver

import (
	"context"
	"io"
	"math"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"dnslb/internal/core"
	"dnslb/internal/dnsclient"
	"dnslb/internal/dnswire"
	"dnslb/internal/simcore"
)

// testServer starts a server with the given policy name over a 7-node
// 50%-heterogeneity cluster and 20 Zipf domains.
func testServer(t *testing.T, policyName string, mapper DomainMapper) (*Server, *core.State) {
	t.Helper()
	return testServerCfg(t, policyName, func(cfg *Config) { cfg.Mapper = mapper })
}

// testServerCfg is testServer with the Config open to edits before New.
func testServerCfg(t *testing.T, policyName string, edit func(*Config)) (*Server, *core.State) {
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
		Name:  policyName,
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
	cfg := Config{
		Zone:        "www.site.example",
		ServerAddrs: addrs,
		Policy:      policy,
		Addr:        "127.0.0.1:0",
		ReportAddr:  "127.0.0.1:0",
	}
	edit(&cfg)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, state
}

func resolverFor(t *testing.T, srv *Server) *dnsclient.Resolver {
	t.Helper()
	return &dnsclient.Resolver{Server: srv.Addr().String(), Timeout: 2 * time.Second}
}

func TestNewValidation(t *testing.T) {
	cluster, _ := core.ScaledCluster(7, 20, 500)
	state, _ := core.NewState(cluster, 20)
	policy, _ := core.NewPolicy(core.PolicyConfig{Name: "RR", State: state})
	addrs := make([]netip.Addr, 7)
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)})
	}
	if _, err := New(Config{ServerAddrs: addrs, Policy: policy}); err == nil {
		t.Error("missing zone should error")
	}
	if _, err := New(Config{Zone: "x", ServerAddrs: addrs}); err == nil {
		t.Error("missing policy should error")
	}
	if _, err := New(Config{Zone: "x", ServerAddrs: addrs[:3], Policy: policy}); err == nil {
		t.Error("address count mismatch should error")
	}
	bad := append([]netip.Addr(nil), addrs...)
	bad[0] = netip.MustParseAddr("::1")
	if _, err := New(Config{Zone: "x", ServerAddrs: bad, Policy: policy}); err == nil {
		t.Error("IPv6 server address should error")
	}
	// The longest zone is the longest whose SOA names still fit a name.
	if _, err := New(Config{Zone: longSOAZone, ServerAddrs: addrs, Policy: policy}); err != nil {
		t.Errorf("a %d-byte zone: %v", maxZoneWire, err)
	}
	if _, err := New(Config{Zone: longSOAZone + "d", ServerAddrs: addrs, Policy: policy}); err == nil {
		t.Errorf("a %d-byte zone leaves no room for hostmaster.<zone> and should error", maxZoneWire+1)
	}
	// A NaN burst would allow every query; a NaN or infinite rate has no
	// meaning as a per-source limit.
	for _, l := range []*RateLimiter{
		NewRateLimiter(1, math.NaN()),
		NewRateLimiter(1, math.Inf(1)),
		NewRateLimiter(math.NaN(), 10),
		NewRateLimiter(math.Inf(1), 10),
	} {
		if _, err := New(Config{Zone: "x", ServerAddrs: addrs, Policy: policy, RateLimit: l}); err == nil {
			t.Errorf("rate limit %v qps, burst %v should error", l.rate, l.burst)
		}
	}
}

func TestUDPQueryAnswersWithAdaptiveTTL(t *testing.T) {
	// Fix every query to domain 0 (the hottest) and use TTL/S_K: the
	// TTL must equal the policy's TTL for (domain 0, chosen server).
	srv, state := testServer(t, "DRR2-TTL/S_K", func(netip.Addr) int { return 0 })
	r := resolverFor(t, srv)
	ctx := context.Background()
	ttlPolicy, err := core.NewTTLPolicy(core.TTLVariant{Classes: core.PerDomain, ServerAware: true}, 240)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		answers, err := r.LookupA(ctx, "www.site.example")
		if err != nil {
			t.Fatal(err)
		}
		if len(answers) != 1 {
			t.Fatalf("got %d answers", len(answers))
		}
		a4 := answers[0].Addr.As4()
		server := int(a4[3]) - 1
		if server < 0 || server >= 7 {
			t.Fatalf("answer address %v not a site server", answers[0].Addr)
		}
		want := ttlPolicy.TTL(state.Snapshot(), 0, server)
		got := answers[0].TTL.Seconds()
		if math.Abs(got-math.Round(want)) > 1.0 {
			t.Errorf("TTL for server %d = %vs, want ≈ %vs", server, got, want)
		}
	}
}

func TestRoundRobinSpreadsServers(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)
	r := resolverFor(t, srv)
	ctx := context.Background()
	seen := make(map[netip.Addr]int)
	for i := 0; i < 21; i++ {
		answers, err := r.LookupA(ctx, "www.site.example")
		if err != nil {
			t.Fatal(err)
		}
		seen[answers[0].Addr]++
	}
	if len(seen) != 7 {
		t.Errorf("RR used %d distinct servers over 21 queries, want 7", len(seen))
	}
	for addr, n := range seen {
		if n != 3 {
			t.Errorf("server %v answered %d times, want exactly 3 under RR", addr, n)
		}
	}
}

func TestNXDomain(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)
	r := resolverFor(t, srv)
	_, err := r.LookupA(context.Background(), "other.example")
	var rc *dnsclient.RCodeError
	if err == nil {
		t.Fatal("foreign name should fail")
	}
	if !asRCode(err, &rc) || rc.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("err = %v, want NXDOMAIN", err)
	}
}

func asRCode(err error, target **dnsclient.RCodeError) bool {
	for err != nil {
		if e, ok := err.(*dnsclient.RCodeError); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestTXTDebugQuery(t *testing.T) {
	srv, _ := testServer(t, "PRR2-TTL/K", nil)
	r := resolverFor(t, srv)
	resp, err := r.Exchange(context.Background(), "www.site.example", dnswire.TypeTXT)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("TXT answers = %d", len(resp.Answers))
	}
	txt, ok := resp.Answers[0].Data.(dnswire.TXT)
	if !ok {
		t.Fatalf("TXT data is %T", resp.Answers[0].Data)
	}
	if !strings.Contains(strings.Join(txt.Strings, " "), "policy=PRR2-TTL/K") {
		t.Errorf("TXT = %v, want policy name", txt.Strings)
	}
}

func TestUnsupportedTypeGetsNoErrorWithSOA(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)
	r := resolverFor(t, srv)
	resp, err := r.Exchange(context.Background(), "www.site.example", dnswire.TypeMX)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 0 {
		t.Errorf("MX query returned %d answers", len(resp.Answers))
	}
	if len(resp.Authority) != 1 || resp.Authority[0].Type != dnswire.TypeSOA {
		t.Errorf("authority = %+v, want SOA", resp.Authority)
	}
}

func TestTCPTransport(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)
	// Query directly over TCP (length-prefixed).
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q := &dnswire.Message{
		Header:    dnswire.Header{ID: 42},
		Questions: []dnswire.Question{{Name: "www.site.example.", Type: dnswire.TypeA, Class: dnswire.ClassIN}},
	}
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte{byte(len(wire) >> 8), byte(len(wire))}, wire...)
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	lenBuf := make([]byte, 2)
	if _, err := io.ReadFull(conn, lenBuf); err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, int(lenBuf[0])<<8|int(lenBuf[1]))
	if _, err := io.ReadFull(conn, msg); err != nil {
		t.Fatal(err)
	}
	resp, err := dnswire.Unpack(msg)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.ID != 42 || !resp.Header.Response || len(resp.Answers) != 1 {
		t.Errorf("TCP response = %+v", resp)
	}
}

func TestAlarmExcludesServer(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)
	r := resolverFor(t, srv)
	ctx := context.Background()
	excluded := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	srv.eng.SetAlarm(0, true)
	for i := 0; i < 14; i++ {
		answers, err := r.LookupA(ctx, "www.site.example")
		if err != nil {
			t.Fatal(err)
		}
		if answers[0].Addr == excluded {
			t.Fatal("alarmed server 0 still selected")
		}
	}
	srv.eng.SetAlarm(0, false)
	seen := false
	for i := 0; i < 14; i++ {
		answers, err := r.LookupA(ctx, "www.site.example")
		if err != nil {
			t.Fatal(err)
		}
		if answers[0].Addr == excluded {
			seen = true
		}
	}
	if !seen {
		t.Error("server 0 never selected after alarm cleared")
	}
}

func TestMalformedQueryIgnoredOrFormErr(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)
	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A 12-byte header claiming a question that is not there.
	bad := make([]byte, 12)
	bad[0], bad[1] = 0xAB, 0xCD
	bad[5] = 1
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 512)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("expected FORMERR response, got read error %v", err)
	}
	resp, err := dnswire.Unpack(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeFormErr || resp.Header.ID != 0xABCD {
		t.Errorf("response = %+v, want FORMERR echoing ID", resp.Header)
	}
	stats := srv.Stats()
	if stats.FormErr == 0 {
		t.Error("FormErr counter not bumped")
	}
}

func TestStatsCounting(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)
	r := resolverFor(t, srv)
	ctx := context.Background()
	if _, err := r.LookupA(ctx, "www.site.example"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.LookupA(ctx, "nope.example"); err == nil {
		t.Fatal("want NXDOMAIN")
	}
	st := srv.Stats()
	if st.Queries < 2 || st.Answered < 1 || st.NXDomain < 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPrefixHashMapper(t *testing.T) {
	m := PrefixHashMapper(20)
	a := m(netip.MustParseAddr("192.0.2.7"))
	b := m(netip.MustParseAddr("192.0.2.200")) // same /24
	if a != b {
		t.Errorf("same /24 mapped to different domains: %d vs %d", a, b)
	}
	if a < 0 || a >= 20 {
		t.Errorf("domain %d out of range", a)
	}
	// Different prefixes should spread (not all equal).
	seen := make(map[int]bool)
	for i := 0; i < 50; i++ {
		seen[m(netip.AddrFrom4([4]byte{10, byte(i), 0, 1}))] = true
	}
	if len(seen) < 5 {
		t.Errorf("prefix hash used only %d domains over 50 prefixes", len(seen))
	}
	v6 := m(netip.MustParseAddr("2001:db8::1"))
	if v6 < 0 || v6 >= 20 {
		t.Errorf("IPv6 domain %d out of range", v6)
	}
	if got := m(netip.Addr{}); got != 0 {
		t.Errorf("invalid addr mapped to %d, want 0", got)
	}
	if got := PrefixHashMapper(0)(netip.MustParseAddr("10.0.0.1")); got != 0 {
		t.Errorf("zero domains mapped to %d, want 0", got)
	}
}

func TestStaticMapper(t *testing.T) {
	a := netip.MustParseAddr("127.0.0.1")
	m := StaticMapper(map[netip.Addr]int{a: 7}, 3)
	if got := m(a); got != 7 {
		t.Errorf("mapped = %d, want 7", got)
	}
	if got := m(netip.MustParseAddr("10.0.0.1")); got != 3 {
		t.Errorf("fallback = %d, want 3", got)
	}
}

func TestCloseIdempotent(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestNotImplementedOpcode(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)
	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q := &dnswire.Message{
		Header:    dnswire.Header{ID: 77, OpCode: dnswire.OpStatus},
		Questions: []dnswire.Question{{Name: "www.site.example.", Type: dnswire.TypeA, Class: dnswire.ClassIN}},
	}
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 512)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnswire.Unpack(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeNotImp {
		t.Errorf("RCode = %v, want NOTIMP", resp.Header.RCode)
	}
	if srv.Stats().NotImp == 0 {
		t.Error("NotImp counter not bumped")
	}
}

func TestResponsesAreDropped(t *testing.T) {
	// A message with the QR bit set must be ignored (reflection guard).
	srv, _ := testServer(t, "RR", nil)
	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	m := &dnswire.Message{
		Header:    dnswire.Header{ID: 5, Response: true},
		Questions: []dnswire.Question{{Name: "www.site.example.", Type: dnswire.TypeA, Class: dnswire.ClassIN}},
	}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	buf := make([]byte, 512)
	if n, err := conn.Read(buf); err == nil {
		t.Errorf("got %d-byte reply to a response-bit message, want silence", n)
	}
}
