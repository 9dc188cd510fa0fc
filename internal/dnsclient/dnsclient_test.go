package dnsclient

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnslb/internal/dnswire"
)

// fakeDNS is a minimal scripted DNS server over UDP and TCP for
// resolver tests, answering every A query with the configured records.
type fakeDNS struct {
	t   *testing.T
	udp *net.UDPConn
	tcp net.Listener

	mu       sync.Mutex
	answers  []dnswire.ResourceRecord
	rcode    dnswire.RCode
	truncate bool // answer UDP with TC bit set

	queries atomic.Int64
}

func (f *fakeDNS) set(answers []dnswire.ResourceRecord, rcode dnswire.RCode, truncate bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.answers, f.rcode, f.truncate = answers, rcode, truncate
}

func newFakeDNS(t *testing.T) *fakeDNS {
	t.Helper()
	uaddr, err := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The TCP listener shares the UDP listener's ephemeral port, which an
	// unrelated TCP socket may already hold: retry with a fresh UDP port.
	const pairAttempts = 16
	var udp *net.UDPConn
	var tcp net.Listener
	for attempt := 0; ; attempt++ {
		if udp, err = net.ListenUDP("udp", uaddr); err != nil {
			t.Fatal(err)
		}
		if tcp, err = net.Listen("tcp", udp.LocalAddr().String()); err == nil {
			break
		}
		_ = udp.Close()
		if attempt == pairAttempts-1 {
			t.Fatal(err)
		}
	}
	f := &fakeDNS{t: t, udp: udp, tcp: tcp}
	go f.serveUDP()
	go f.serveTCP()
	t.Cleanup(func() {
		_ = udp.Close()
		_ = tcp.Close()
	})
	return f
}

func (f *fakeDNS) addr() string { return f.udp.LocalAddr().String() }

func (f *fakeDNS) respond(q *dnswire.Message, overUDP bool) []byte {
	f.queries.Add(1)
	f.mu.Lock()
	answers, rcode, truncate := f.answers, f.rcode, f.truncate
	f.mu.Unlock()
	resp := &dnswire.Message{
		Header: dnswire.Header{
			ID:       q.Header.ID,
			Response: true,
			RCode:    rcode,
		},
		Questions: q.Questions,
	}
	if overUDP && truncate {
		resp.Header.Truncated = true
	} else if rcode == dnswire.RCodeNoError {
		resp.Answers = answers
	}
	wire, err := resp.Pack()
	if err != nil {
		f.t.Errorf("fake pack: %v", err)
		return nil
	}
	return wire
}

func (f *fakeDNS) serveUDP() {
	buf := make([]byte, 65535)
	for {
		n, raddr, err := f.udp.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		q, err := dnswire.Unpack(buf[:n])
		if err != nil {
			continue
		}
		if wire := f.respond(q, true); wire != nil {
			_, _ = f.udp.WriteToUDPAddrPort(wire, raddr)
		}
	}
}

func (f *fakeDNS) serveTCP() {
	for {
		conn, err := f.tcp.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			lenBuf := make([]byte, 2)
			if err := readFull(conn, lenBuf); err != nil {
				return
			}
			msg := make([]byte, int(lenBuf[0])<<8|int(lenBuf[1]))
			if err := readFull(conn, msg); err != nil {
				return
			}
			q, err := dnswire.Unpack(msg)
			if err != nil {
				return
			}
			wire := f.respond(q, false)
			out := append([]byte{byte(len(wire) >> 8), byte(len(wire))}, wire...)
			_, _ = conn.Write(out)
		}()
	}
}

func aRecord(name string, ttl uint32, ip string) dnswire.ResourceRecord {
	return dnswire.ResourceRecord{
		Name:  dnswire.CanonicalName(name),
		Type:  dnswire.TypeA,
		Class: dnswire.ClassIN,
		TTL:   ttl,
		Data:  dnswire.A{Addr: netip.MustParseAddr(ip)},
	}
}

func TestLookupA(t *testing.T) {
	f := newFakeDNS(t)
	f.set([]dnswire.ResourceRecord{
		aRecord("web.example", 120, "10.9.9.1"),
		aRecord("web.example", 90, "10.9.9.2"),
	}, dnswire.RCodeNoError, false)
	r := &Resolver{Server: f.addr(), Timeout: time.Second}
	answers, err := r.LookupA(context.Background(), "web.example")
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 2 {
		t.Fatalf("answers = %d", len(answers))
	}
	if answers[0].Addr != netip.MustParseAddr("10.9.9.1") || answers[0].TTL != 120*time.Second {
		t.Errorf("answer 0 = %+v", answers[0])
	}
}

func TestLookupAFiltersForeignRecords(t *testing.T) {
	f := newFakeDNS(t)
	f.set([]dnswire.ResourceRecord{
		aRecord("other.example", 60, "10.0.0.9"),
		{
			Name: "web.example.", Type: dnswire.TypeTXT, Class: dnswire.ClassIN, TTL: 60,
			Data: dnswire.TXT{Strings: []string{"x"}},
		},
	}, dnswire.RCodeNoError, false)
	r := &Resolver{Server: f.addr(), Timeout: time.Second}
	_, err := r.LookupA(context.Background(), "web.example")
	if !errors.Is(err, ErrNoAnswer) {
		t.Errorf("err = %v, want ErrNoAnswer", err)
	}
}

func TestRCodeErrorSurface(t *testing.T) {
	f := newFakeDNS(t)
	f.set(nil, dnswire.RCodeNXDomain, false)
	r := &Resolver{Server: f.addr(), Timeout: time.Second}
	_, err := r.LookupA(context.Background(), "web.example")
	var rcErr *RCodeError
	if !errors.As(err, &rcErr) || rcErr.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("err = %v, want RCodeError(NXDOMAIN)", err)
	}
	if rcErr.Error() == "" {
		t.Error("empty error message")
	}
}

func TestTruncationFallsBackToTCP(t *testing.T) {
	f := newFakeDNS(t)
	f.set([]dnswire.ResourceRecord{aRecord("web.example", 60, "10.1.1.1")}, dnswire.RCodeNoError, true)
	r := &Resolver{Server: f.addr(), Timeout: time.Second}
	answers, err := r.LookupA(context.Background(), "web.example")
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 || answers[0].Addr != netip.MustParseAddr("10.1.1.1") {
		t.Errorf("answers = %+v", answers)
	}
	// UDP query + TCP retry = 2 upstream queries.
	if got := f.queries.Load(); got != 2 {
		t.Errorf("upstream queries = %d, want 2 (UDP then TCP)", got)
	}
}

func TestResolverTimeout(t *testing.T) {
	// A UDP socket nobody answers on.
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := &Resolver{Server: conn.LocalAddr().String(), Timeout: 100 * time.Millisecond}
	start := time.Now()
	_, err = r.LookupA(context.Background(), "web.example")
	if err == nil {
		t.Fatal("expected timeout")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timeout took %v", elapsed)
	}
}

func TestCachingNSHitsWithinTTL(t *testing.T) {
	f := newFakeDNS(t)
	f.set([]dnswire.ResourceRecord{aRecord("web.example", 300, "10.2.2.2")}, dnswire.RCodeNoError, false)
	r := &Resolver{Server: f.addr(), Timeout: time.Second}
	ns := NewCachingNS(r, 0)

	now := time.Unix(1000, 0)
	ns.now = func() time.Time { return now }

	ctx := context.Background()
	_, fromCache, err := ns.LookupA(ctx, "web.example")
	if err != nil || fromCache {
		t.Fatalf("first lookup: cache=%v err=%v", fromCache, err)
	}
	// Within TTL: served locally, including case variants.
	now = now.Add(299 * time.Second)
	answers, fromCache, err := ns.LookupA(ctx, "WEB.Example.")
	if err != nil || !fromCache {
		t.Fatalf("second lookup: cache=%v err=%v", fromCache, err)
	}
	if answers[0].Addr != netip.MustParseAddr("10.2.2.2") {
		t.Errorf("cached answer = %+v", answers[0])
	}
	// Past TTL: refetch.
	now = now.Add(2 * time.Second)
	_, fromCache, err = ns.LookupA(ctx, "web.example")
	if err != nil || fromCache {
		t.Fatalf("expired lookup: cache=%v err=%v", fromCache, err)
	}
	st := ns.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
	if got := f.queries.Load(); got != 2 {
		t.Errorf("upstream queries = %d, want 2", got)
	}
}

func TestCachingNSMinTTLClamp(t *testing.T) {
	f := newFakeDNS(t)
	f.set([]dnswire.ResourceRecord{aRecord("web.example", 10, "10.3.3.3")}, dnswire.RCodeNoError, false)
	r := &Resolver{Server: f.addr(), Timeout: time.Second}
	ns := NewCachingNS(r, 120*time.Second) // non-cooperative
	now := time.Unix(5000, 0)
	ns.now = func() time.Time { return now }
	ctx := context.Background()
	if _, _, err := ns.LookupA(ctx, "web.example"); err != nil {
		t.Fatal(err)
	}
	// 60 s later the 10 s TTL has lapsed, but the clamped 120 s has not.
	now = now.Add(60 * time.Second)
	_, fromCache, err := ns.LookupA(ctx, "web.example")
	if err != nil || !fromCache {
		t.Fatalf("clamped lookup: cache=%v err=%v", fromCache, err)
	}
	if ns.Stats().Clamped != 1 {
		t.Errorf("Clamped = %d, want 1", ns.Stats().Clamped)
	}
	now = now.Add(61 * time.Second)
	_, fromCache, err = ns.LookupA(ctx, "web.example")
	if err != nil || fromCache {
		t.Fatalf("post-clamp lookup: cache=%v err=%v", fromCache, err)
	}
}

func TestCachingNSUsesMinimumAnswerTTL(t *testing.T) {
	f := newFakeDNS(t)
	f.set([]dnswire.ResourceRecord{
		aRecord("web.example", 300, "10.4.4.1"),
		aRecord("web.example", 30, "10.4.4.2"),
	}, dnswire.RCodeNoError, false)
	r := &Resolver{Server: f.addr(), Timeout: time.Second}
	ns := NewCachingNS(r, 0)
	now := time.Unix(9000, 0)
	ns.now = func() time.Time { return now }
	ctx := context.Background()
	if _, _, err := ns.LookupA(ctx, "web.example"); err != nil {
		t.Fatal(err)
	}
	now = now.Add(31 * time.Second)
	_, fromCache, err := ns.LookupA(ctx, "web.example")
	if err != nil || fromCache {
		t.Fatalf("expected refetch after the smallest TTL, cache=%v err=%v", fromCache, err)
	}
}

func TestCachingNSFlush(t *testing.T) {
	f := newFakeDNS(t)
	f.set([]dnswire.ResourceRecord{aRecord("web.example", 600, "10.5.5.5")}, dnswire.RCodeNoError, false)
	r := &Resolver{Server: f.addr(), Timeout: time.Second}
	ns := NewCachingNS(r, 0)
	ctx := context.Background()
	if _, _, err := ns.LookupA(ctx, "web.example"); err != nil {
		t.Fatal(err)
	}
	ns.Flush()
	_, fromCache, err := ns.LookupA(ctx, "web.example")
	if err != nil || fromCache {
		t.Fatalf("post-flush lookup: cache=%v err=%v", fromCache, err)
	}
}

func TestCachingNSDoesNotCacheErrors(t *testing.T) {
	f := newFakeDNS(t)
	f.set(nil, dnswire.RCodeServFail, false)
	r := &Resolver{Server: f.addr(), Timeout: time.Second}
	ns := NewCachingNS(r, 0)
	ctx := context.Background()
	if _, _, err := ns.LookupA(ctx, "web.example"); err == nil {
		t.Fatal("expected SERVFAIL")
	}
	f.set([]dnswire.ResourceRecord{aRecord("web.example", 60, "10.6.6.6")}, dnswire.RCodeNoError, false)
	answers, fromCache, err := ns.LookupA(ctx, "web.example")
	if err != nil || fromCache {
		t.Fatalf("recovery lookup: cache=%v err=%v", fromCache, err)
	}
	if answers[0].Addr != netip.MustParseAddr("10.6.6.6") {
		t.Errorf("answer = %+v", answers[0])
	}
}

func TestNegativeCachingNXDomain(t *testing.T) {
	f := newFakeDNS(t)
	f.set(nil, dnswire.RCodeNXDomain, false)
	r := &Resolver{Server: f.addr(), Timeout: time.Second}
	ns := NewCachingNS(r, 0)
	now := time.Unix(100, 0)
	ns.now = func() time.Time { return now }
	ctx := context.Background()

	_, fromCache, err := ns.LookupA(ctx, "ghost.example")
	var rcErr *RCodeError
	if !errors.As(err, &rcErr) || fromCache {
		t.Fatalf("first lookup: err=%v cache=%v", err, fromCache)
	}
	// Within the negative TTL the error is served locally.
	now = now.Add(30 * time.Second)
	_, fromCache, err = ns.LookupA(ctx, "ghost.example")
	if !errors.As(err, &rcErr) || rcErr.RCode != dnswire.RCodeNXDomain || !fromCache {
		t.Fatalf("cached negative lookup: err=%v cache=%v", err, fromCache)
	}
	if got := f.queries.Load(); got != 1 {
		t.Errorf("upstream queries = %d, want 1 (negative answer cached)", got)
	}
	if ns.Stats().NegativeHits != 1 {
		t.Errorf("NegativeHits = %d, want 1", ns.Stats().NegativeHits)
	}
	// After the window lapses, the upstream is asked again — and a
	// now-existing name resolves.
	now = now.Add(negativeTTL)
	f.set([]dnswire.ResourceRecord{aRecord("ghost.example", 60, "10.10.10.10")}, dnswire.RCodeNoError, false)
	answers, fromCache, err := ns.LookupA(ctx, "ghost.example")
	if err != nil || fromCache {
		t.Fatalf("post-expiry lookup: err=%v cache=%v", err, fromCache)
	}
	if answers[0].Addr != netip.MustParseAddr("10.10.10.10") {
		t.Errorf("answer = %+v", answers[0])
	}
}

func TestNegativeCachingNoData(t *testing.T) {
	f := newFakeDNS(t)
	// NOERROR with no A records (e.g. the name only has TXT data).
	f.set([]dnswire.ResourceRecord{{
		Name: "data.example.", Type: dnswire.TypeTXT, Class: dnswire.ClassIN, TTL: 60,
		Data: dnswire.TXT{Strings: []string{"x"}},
	}}, dnswire.RCodeNoError, false)
	r := &Resolver{Server: f.addr(), Timeout: time.Second}
	ns := NewCachingNS(r, 0)
	now := time.Unix(100, 0)
	ns.now = func() time.Time { return now }
	ctx := context.Background()
	if _, _, err := ns.LookupA(ctx, "data.example"); !errors.Is(err, ErrNoAnswer) {
		t.Fatalf("err = %v", err)
	}
	now = now.Add(10 * time.Second)
	_, fromCache, err := ns.LookupA(ctx, "data.example")
	if !errors.Is(err, ErrNoAnswer) || !fromCache {
		t.Fatalf("cached no-data lookup: err=%v cache=%v", err, fromCache)
	}
	if got := f.queries.Load(); got != 1 {
		t.Errorf("upstream queries = %d, want 1", got)
	}
}

func TestTransportErrorsNotCached(t *testing.T) {
	// Nothing listens: the failure must not be negatively cached, so a
	// later working server is retried.
	dead, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.LocalAddr().String()
	_ = dead.Close()
	r := &Resolver{Server: addr, Timeout: 100 * time.Millisecond}
	ns := NewCachingNS(r, 0)
	ctx := context.Background()
	if _, _, err := ns.LookupA(ctx, "x.example"); err == nil {
		t.Fatal("expected transport error")
	}
	// Second attempt must also hit the (dead) upstream, proving the
	// transport error was not cached: still a cache miss.
	if _, fromCache, err := ns.LookupA(ctx, "x.example"); err == nil || fromCache {
		t.Fatalf("transport error wrongly cached: err=%v cache=%v", err, fromCache)
	}
	if ns.Stats().Misses != 2 {
		t.Errorf("Misses = %d, want 2", ns.Stats().Misses)
	}
}
