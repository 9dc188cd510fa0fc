package loadgen

import (
	"encoding/binary"
	"net"
	"net/netip"
	"testing"
	"time"
)

var testServers = Servers{{10, 0, 0, 1}: true, {10, 0, 0, 2}: true}

func testStream(seed uint64, rate float64) StreamConfig {
	var mix Mix
	mix[KindAECS] = 1
	return StreamConfig{
		Seed: seed, Zone: "www.site.example", Sibling: "ftp.site.example",
		Domains: 20, Subnets: 16, Theta: 1, Mix: mix, RateQPS: rate,
	}
}

// answer builds the correct response to an A query for the zone: the
// question echoed, one A record, and the query's OPT — if it has one —
// echoed with scope 24.
func answer(query []byte) []byte {
	qend := skipName(query, 12) + 4
	resp := append([]byte(nil), query[:qend]...)
	resp[2], resp[3] = 0x84, 0
	binary.BigEndian.PutUint16(resp[6:], 1)
	resp = append(resp, 0xC0, 12, 0, typeA, 0, classIN, 0, 0, 0, 240, 0, 4, 10, 0, 0, 1)
	if opt := query[qend:]; len(opt) > 0 {
		at := len(resp)
		resp = append(resp, opt...)
		resp[at+11+4+3] = ecsBits // scope prefix length
	}
	return resp
}

// stub is a UDP server that answers every query correctly, except that
// it may sit on its hands once and may corrupt one response.
type stub struct {
	conn     *net.UDPConn
	stallAt  int           // stall before answering this query (counting from 1)
	stallFor time.Duration // for this long
	corrupt  int           // pass this answer (counting from 1) through mutate
	mutate   func(resp []byte)
	done     chan struct{}
}

func startStub(t *testing.T, s *stub) netip.AddrPort {
	t.Helper()
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	s.conn, s.done = conn, make(chan struct{})
	go func() {
		defer close(s.done)
		buf := make([]byte, 512)
		for n := 1; ; n++ {
			got, from, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if n == s.stallAt {
				time.Sleep(s.stallFor)
			}
			resp := answer(buf[:got])
			if n == s.corrupt {
				s.mutate(resp)
			}
			if _, err := conn.WriteToUDPAddrPort(resp, from); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		conn.Close()
		<-s.done
	})
	return conn.LocalAddr().(*net.UDPAddr).AddrPort()
}

func dialStub(t *testing.T, ring *Ring, addr netip.AddrPort, timeout time.Duration) *Generator {
	t.Helper()
	g, err := Dial(ring, Options{Addr: addr, Framing: FrameUDP, Conns: 1, Window: 8, Timeout: timeout, Servers: testServers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func TestSameSeedSameRing(t *testing.T) {
	a, err := NewRing(testStream(42, 20000))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewRing(testStream(42, 20000))
	c, _ := NewRing(testStream(43, 20000))
	if a.Hash != b.Hash {
		t.Errorf("the same seed gave rings %x and %x", a.Hash, b.Hash)
	}
	if a.Hash == c.Hash {
		t.Errorf("seeds 42 and 43 gave the same ring %x", a.Hash)
	}
	// The arrival schedule must average the configured rate.
	var total float64
	for _, g := range a.gap {
		total += float64(g)
	}
	if mean := total / RingSize; mean < 48000 || mean > 52000 {
		t.Errorf("mean gap %.0f ns, want about 50000 for 20000 qps", mean)
	}
}

// A server that stalls must show up in latency taken from each query's
// due time, for every query that fell due during the stall — not just
// for the one that happened to be in flight — and the generator must
// own up to how late its sends ran.
func TestStallIsChargedFromDueTime(t *testing.T) {
	const rate = 2000
	ring, err := NewRing(testStream(1, rate))
	if err != nil {
		t.Fatal(err)
	}
	addr := startStub(t, &stub{stallAt: 400, stallFor: 250 * time.Millisecond})
	g := dialStub(t, ring, addr, time.Second)
	res, err := g.Open(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() != 0 {
		t.Fatalf("%d of %d queries failed: %v", res.Failed(), res.Sent, res.Fails)
	}
	if res.Sent < rate*8/10 {
		t.Fatalf("only %d queries offered in 1 s at %d qps: the loop is not open", res.Sent, rate)
	}
	p99 := time.Duration(Percentile(res.Latency, 0.99))
	if p99 < 200*time.Millisecond {
		t.Errorf("latency p99 %v after a 250 ms stall, want ≥ 200 ms: latency is not taken from the due time", p99)
	}
	p50 := time.Duration(Percentile(res.Latency, 0.50))
	if p50 > 50*time.Millisecond {
		t.Errorf("latency p50 %v: the stall should reach a quarter of the queries, not half", p50)
	}
	// 250 ms at 2000 qps is 500 due queries against 192 allowed in
	// flight: the rest left late, and late_p99 must say so.
	late := time.Duration(Percentile(res.Late, 0.99))
	if late < 50*time.Millisecond {
		t.Errorf("send lateness p99 %v, want ≥ 50 ms", late)
	}
}

func TestCorruptedAnswerFails(t *testing.T) {
	ring, err := NewRing(testStream(1, 20000))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(resp []byte)
		want   Fail
		stray  uint64
	}{
		{"address", func(r []byte) { r[len(r)-22-1] = 99 }, FailAddr, 0},
		{"ecs scope", func(r []byte) { r[len(r)-4] = 16 }, FailECS, 0},
		{"ecs subnet", func(r []byte) { r[len(r)-1] ^= 0xFF }, FailECS, 0},
		{"ttl zero", func(r []byte) { copy(r[len(r)-22-10:], []byte{0, 0, 0, 0}) }, FailTTL, 0},
		{"servfail", func(r []byte) { r[3] = 2 }, FailHeader, 0},
		// A flipped ID answers nothing outstanding: its query times out.
		{"id", func(r []byte) { r[0] ^= 0x80 }, FailTimeout, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := startStub(t, &stub{corrupt: 50, mutate: tc.mutate})
			g := dialStub(t, ring, addr, 100*time.Millisecond)
			res, err := g.Burst(200, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if res.Sent != 200 || res.Correct != 199 || res.Failed() != 1 || res.Fails[tc.want] != 1 || res.Stray != tc.stray {
				t.Errorf("sent %d correct %d failed %d (%v) stray %d; want 200/199/1 with one %q and %d stray",
					res.Sent, res.Correct, res.Failed(), res.Fails, res.Stray, tc.want, tc.stray)
			}
		})
	}
}

func TestCheckKinds(t *testing.T) {
	soa := func(resp []byte) []byte { // name ptr, SOA, IN, ttl 60, rdlen 4 (contents are not read)
		return append(resp, 0xC0, 12, 0, typeSOA, 0, classIN, 0, 0, 0, 60, 0, 4, 1, 2, 3, 4)
	}
	header := func(q []byte, b2, b3 byte, an, ns uint16) []byte {
		qend := skipName(q, 12) + 4
		r := append([]byte(nil), q[:qend]...)
		r[2], r[3] = b2, b3
		binary.BigEndian.PutUint16(r[6:], an)
		binary.BigEndian.PutUint16(r[8:], ns)
		binary.BigEndian.PutUint16(r[10:], 0)
		return r
	}
	nxq := AppendQuery(nil, 7, "ftp.site.example", typeA, nil)
	if f := Check(soa(header(nxq, 0x84, 3, 0, 1)), nxq, KindNX, [3]byte{}, testServers); f != OK {
		t.Errorf("NXDOMAIN+SOA: %v", f)
	}
	if f := Check(header(nxq, 0x84, 0, 0, 0), nxq, KindNX, [3]byte{}, testServers); f != FailHeader {
		t.Errorf("NOERROR for a sibling name: %v, want header", f)
	}
	txtq := AppendQuery(nil, 8, "www.site.example", typeTXT, nil)
	txt := append(header(txtq, 0x84, 0, 1, 0), 0xC0, 12, 0, typeTXT, 0, classIN, 0, 0, 0, 0, 0, 11, 10)
	txt = append(txt, "policy=RR2"...)
	if f := Check(txt, txtq, KindTXT, [3]byte{}, testServers); f != OK {
		t.Errorf("TXT: %v", f)
	}
	plain := AppendQuery(nil, 9, "www.site.example", typeA, nil)
	if f := Check(answer(plain), plain, KindA, [3]byte{}, testServers); f != OK {
		t.Errorf("plain A: %v", f)
	}
	if f := Check(answer(plain)[:20], plain, KindA, [3]byte{}, testServers); f == OK {
		t.Error("a truncated answer passed")
	}
}

func TestParseHTTP(t *testing.T) {
	full := "HTTP/1.1 200 OK\r\nContent-Type: application/dns-message\r\nContent-Length: 5\r\n\r\nhelloHTTP/1.1 404"
	body, total, status, err := parseHTTP([]byte(full))
	if err != nil || string(body) != "hello" || status != 200 || total != len(full)-len("HTTP/1.1 404") {
		t.Errorf("got body %q total %d status %d err %v", body, total, status, err)
	}
	if _, total, _, err := parseHTTP([]byte(full[:60])); err != nil || total != 0 {
		t.Errorf("incomplete response: total %d err %v, want 0 and nil", total, err)
	}
	if _, _, _, err := parseHTTP([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n")); err == nil {
		t.Error("a response without Content-Length was accepted")
	}
	ok := `{"Status":0,"Answer":[{"name":"www.site.example.","type":1,"TTL":240,"data":"10.0.0.2"}],"edns_client_subnet":"11.2.3.0/24/24"}`
	if f := checkJSON([]byte(ok), [3]byte{11, 2, 3}, testServers); f != OK {
		t.Errorf("good JSON answer: %v", f)
	}
	if f := checkJSON([]byte(ok), [3]byte{11, 2, 4}, testServers); f != FailECS {
		t.Errorf("JSON answer for another subnet: %v, want ecs", f)
	}
}

// Several connections driven by one load goroutine must together offer
// the ring's rate in the open loop, each must be served in the closed
// loop, and every answer must find its query.
func TestOneLoopDrivesSeveralConnections(t *testing.T) {
	const rate, conns = 4000, 4
	ring, err := NewRing(testStream(3, rate))
	if err != nil {
		t.Fatal(err)
	}
	addr := startStub(t, &stub{})
	g, err := Dial(ring, Options{Addr: addr, Framing: FrameUDP, Conns: conns, Loops: 1, Window: 1, Timeout: time.Second, Servers: testServers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	open, err := g.Open(500 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if open.Failed() != 0 || open.Stray != 0 {
		t.Errorf("open loop: %d failed, %d stray of %d", open.Failed(), open.Stray, open.Sent)
	}
	if open.Sent < rate/2*8/10 || open.Sent > rate/2*12/10 {
		t.Errorf("open loop sent %d queries in half a second, want about %d", open.Sent, rate/2)
	}
	closed, err := g.Burst(50, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if closed.Sent != 50*conns || closed.Correct != closed.Sent {
		t.Errorf("closed loop: sent %d, correct %d, want %d of each", closed.Sent, closed.Correct, 50*conns)
	}
}
