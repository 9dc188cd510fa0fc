package dnsserver

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/netip"
	"sync/atomic"
	"testing"

	"dnslb/internal/core"
	"dnslb/internal/dnswire"
	"dnslb/internal/engine"
	"dnslb/internal/metrics"
	"dnslb/internal/simcore"
)

// benchServer starts a server for throughput benchmarks: 7 servers,
// 20 domains, parallel UDP workers, otherwise the default
// configuration. Metrics are enabled — the numbers this benchmark
// records are for the instrumented hot path, which is what production
// runs. An empty addr leaves the server unstarted, for benchmarks that
// call the handler directly.
func benchServer(b *testing.B, policyName, addr string, edits ...func(*Config)) *Server {
	b.Helper()
	cluster, err := core.ScaledCluster(7, 50, 500)
	if err != nil {
		b.Fatal(err)
	}
	state, err := core.NewState(cluster, 20)
	if err != nil {
		b.Fatal(err)
	}
	if err := state.SetWeights(simcore.ZipfWeights(20, 1)); err != nil {
		b.Fatal(err)
	}
	var tick atomic.Int64
	policy, err := core.NewPolicy(core.PolicyConfig{
		Name:  policyName,
		State: state,
		Rand:  simcore.NewStream(1, "bench"),
		Now:   func() float64 { return float64(tick.Add(1)) / 1e4 },
	})
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]netip.Addr, 7)
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)})
	}
	cfg := Config{
		Zone:        "www.site.example",
		ServerAddrs: addrs,
		Policy:      policy,
		Addr:        addr,
		Metrics:     metrics.NewRegistry(),
	}
	for _, edit := range edits {
		edit(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if addr != "" {
		if err := srv.Start(); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = srv.Close() })
	}
	return srv
}

// zoneQuery packs an IN A query for the test zone, with a Client Subnet
// option when ecs is valid.
func zoneQuery(t testing.TB, ecs netip.Prefix) []byte {
	t.Helper()
	q := &dnswire.Message{
		Header: dnswire.Header{ID: 7, RecursionDesired: true},
		Questions: []dnswire.Question{
			{Name: "www.site.example", Type: dnswire.TypeA, Class: dnswire.ClassIN},
		},
	}
	if ecs.IsValid() {
		if err := q.SetClientSubnet(dnswire.ClientSubnet{Prefix: ecs}, 1232); err != nil {
			t.Fatal(err)
		}
	}
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// The two query shapes of live traffic: from a resolver that forwards
// its client's subnet, and from one that does not.
var hotPathQueries = []struct {
	name string
	ecs  netip.Prefix
}{
	{"plain", netip.Prefix{}},
	{"ecs", netip.MustParsePrefix("10.4.7.0/24")},
}

// BenchmarkServerUDPThroughput measures full query round-trips over
// loopback UDP — decode, schedule, encode and both socket hops — with
// one concurrent client per benchmark goroutine against the parallel
// serve loops. Allocations reported include the server side, which is
// the component this benchmark tracks (the client sends a pre-packed
// query into a reused buffer).
func BenchmarkServerUDPThroughput(b *testing.B) {
	srv := benchServer(b, "DRR2-TTL/S_K", "127.0.0.1:0")
	query := zoneQuery(b, netip.Prefix{})

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		conn, err := net.Dial("udp", srv.Addr().String())
		if err != nil {
			b.Error(err)
			return
		}
		defer conn.Close()
		resp := make([]byte, dnswire.MaxUDPPayload)
		for pb.Next() {
			if _, err := conn.Write(query); err != nil {
				b.Error(err)
				return
			}
			n, err := conn.Read(resp)
			if err != nil {
				b.Error(err)
				return
			}
			if n < 12 || resp[0] != query[0] || resp[1] != query[1] {
				b.Error("malformed response")
				return
			}
		}
	})
}

// BenchmarkServerUDPWindow is BenchmarkServerTCPPipelined for UDP: one
// client socket keeps 32 queries in flight, so a worker finds several
// datagrams queued when it reads — the traffic a batch is for.
func BenchmarkServerUDPWindow(b *testing.B) {
	srv := benchServer(b, "DRR2-TTL/S_K", "127.0.0.1:0")
	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	const window = 32
	query := zoneQuery(b, netip.Prefix{})
	resp := make([]byte, dnswire.MaxUDPPayload)

	b.ReportAllocs()
	b.ResetTimer()
	sent := 0
	for done := 0; done < b.N; done++ {
		for ; sent < b.N && sent < done+window; sent++ {
			if _, err := conn.Write(query); err != nil {
				b.Fatal(err)
			}
		}
		n, err := conn.Read(resp)
		if err != nil {
			b.Fatal(err)
		}
		if n < 12 || resp[0] != query[0] || resp[1] != query[1] {
			b.Fatal("malformed response")
		}
	}
}

// BenchmarkServerTCPPipelined measures query round-trips over one
// loopback TCP connection with 16 queries kept in flight — the serve
// loop's framing, batching and socket cost on top of the handler. The
// client writes pre-framed queries and reads responses into a reused
// buffer, so the allocations reported are the server's.
func BenchmarkServerTCPPipelined(b *testing.B) {
	srv := benchServer(b, "DRR2-TTL/S_K", "127.0.0.1:0")
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	const window = 16
	frame := frameTCP(zoneQuery(b, netip.Prefix{}))
	br := bufio.NewReaderSize(conn, 4096)
	resp := make([]byte, dnswire.MaxUDPPayload)

	b.ReportAllocs()
	b.ResetTimer()
	sent := 0
	for done := 0; done < b.N; done++ {
		for ; sent < b.N && sent < done+window; sent++ {
			if _, err := conn.Write(frame); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := io.ReadFull(br, resp[:2]); err != nil {
			b.Fatal(err)
		}
		n := int(resp[0])<<8 | int(resp[1])
		if _, err := io.ReadFull(br, resp[:n]); err != nil {
			b.Fatal(err)
		}
		if n < 12 || resp[0] != frame[2] || resp[1] != frame[3] {
			b.Fatal("malformed response")
		}
	}
}

// The query shapes that get no address: a few percent of live traffic,
// and what a resolver whose cache the short TTLs keep emptying sends
// just as often as before.
var coldPathQueries = []struct {
	name  string
	op    dnswire.OpCode
	qname string
	qtype dnswire.Type
	rcode dnswire.RCode
}{
	{"NXDOMAIN", dnswire.OpQuery, "ftp.site.example", dnswire.TypeA, dnswire.RCodeNXDomain},
	{"NODATA", dnswire.OpQuery, "www.site.example", dnswire.TypeAAAA, dnswire.RCodeNoError},
	{"TXT", dnswire.OpQuery, "www.site.example", dnswire.TypeTXT, dnswire.RCodeNoError},
	{"NOTIMP", dnswire.OpStatus, "www.site.example", dnswire.TypeA, dnswire.RCodeNotImp},
}

// BenchmarkHandleColdPath is BenchmarkHandleHotPath for the other
// response shapes, and for /resolve through the DoH framer (request
// parsing, query synthesis, answer, JSON, response head) on an address
// query with a client subnet.
func BenchmarkHandleColdPath(b *testing.B) {
	for _, c := range coldPathQueries {
		b.Run(c.name, func(b *testing.B) {
			srv := benchServer(b, "DRR2-TTL/S_K", "")
			query := packQuery(b, 7, c.op, c.qname, c.qtype)
			from := netip.MustParseAddr("127.0.0.1")
			buf := make([]byte, 0, 2048)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := srv.handle(query, from, engine.TransportUDP, dnswire.MaxUDPPayload, buf[:0])
				if out == nil {
					b.Fatal("query dropped")
				}
			}
		})
	}
	b.Run("resolve", func(b *testing.B) {
		srv := benchServer(b, "DRR2-TTL/S_K", "")
		d, req := newDoHDirect(srv), dohGet(dohResolve)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if resp := d.raw(b, req); !bytes.HasPrefix(resp, []byte("HTTP/1.1 200 OK\r\n")) {
				b.Fatalf("response %q", resp)
			}
		}
	})
}

// BenchmarkHandleHotPath measures the server-side handler alone —
// decode, schedule, encode — without sockets, in the default
// configuration. The companion TestHandleHotPathZeroAlloc pins the
// allocation count.
func BenchmarkHandleHotPath(b *testing.B) {
	for _, c := range hotPathQueries {
		b.Run(c.name, func(b *testing.B) {
			srv := benchServer(b, "DRR2-TTL/S_K", "")
			query := zoneQuery(b, c.ecs)
			from := netip.MustParseAddr("127.0.0.1")
			buf := make([]byte, 0, 2048)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := srv.handle(query, from, engine.TransportUDP, dnswire.MaxUDPPayload, buf[:0])
				if out == nil {
					b.Fatal("query dropped")
				}
			}
		})
	}
}

// BenchmarkAppendAnswer measures the answer encoder alone.
func BenchmarkAppendAnswer(b *testing.B) {
	for _, c := range hotPathQueries {
		b.Run(c.name, func(b *testing.B) {
			srv, _ := testServerNoStart(b, "RR")
			q := dnswire.GetQuery()
			defer dnswire.PutQuery(q)
			if err := q.UnpackQuery(zoneQuery(b, c.ecs)); err != nil {
				b.Fatal(err)
			}
			r := reply{
				hdr:   dnswire.Header{ID: q.Header.ID, Response: true, Authoritative: true, RecursionDesired: true},
				shape: shapeA,
				addr:  netip.MustParseAddr("10.0.0.3"),
				ttl:   240,
				scope: 24,
			}
			buf := make([]byte, 0, 2048)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if out := srv.appendReply(buf[:0], q, &r, dnswire.MaxUDPPayload, nil); out == nil {
					b.Fatal("no answer")
				}
			}
		})
	}
}

// TestHandleHotPathZeroAlloc pins the acceptance target: in the default
// configuration the handler allocates nothing per query — for an
// address answer with or without a Client Subnet echo, for the REFUSED
// a rate-limited source gets, and for every other shape appendReply
// writes.
func TestHandleHotPathZeroAlloc(t *testing.T) {
	from := netip.MustParseAddr("127.0.0.1")
	buf := make([]byte, 0, 2048)
	zeroAlloc := func(t *testing.T, srv *Server, query []byte, rcode dnswire.RCode) {
		t.Helper()
		ask := func() {
			out := srv.handle(query, from, engine.TransportUDP, dnswire.MaxUDPPayload, buf[:0])
			if out == nil {
				t.Fatal("query dropped")
			}
			if got := dnswire.RCode(out[3] & 0xF); got != rcode {
				t.Fatalf("rcode %v, want %v", got, rcode)
			}
		}
		for i := 0; i < 64; i++ { // every rotation slot, the pools, the limiter's bucket
			ask()
		}
		if allocs := testing.AllocsPerRun(500, ask); allocs != 0 {
			t.Errorf("handler allocates %.1f times per query, want 0", allocs)
		}
	}

	queries := map[string][]byte{
		"A":        zoneQuery(t, netip.Prefix{}),
		"A+ECS v4": zoneQuery(t, netip.MustParsePrefix("10.4.7.0/24")),
		"A+ECS v6": zoneQuery(t, netip.MustParsePrefix("2001:db8:4:5600::/56")),
	}
	for name, query := range queries {
		t.Run(name, func(t *testing.T) {
			srv, _ := testServerNoStart(t, "DRR2-TTL/S_K")
			zeroAlloc(t, srv, query, dnswire.RCodeNoError)
		})
	}
	for _, c := range coldPathQueries {
		t.Run(c.name, func(t *testing.T) {
			srv, _ := testServerNoStart(t, "DRR2-TTL/S_K")
			zeroAlloc(t, srv, packQuery(t, 7, c.op, c.qname, c.qtype), c.rcode)
		})
	}
	t.Run("rate-limited", func(t *testing.T) {
		srv, _ := testServerNoStart(t, "DRR2-TTL/S_K")
		srv.limiter = NewRateLimiter(1e-9, 1)
		srv.limiter.Allow(from) // the burst's one token
		zeroAlloc(t, srv, queries["A"], dnswire.RCodeRefused)
	})
}
