package dnsserver

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"dnslb/internal/core"
	"dnslb/internal/dnsclient"
	"dnslb/internal/dnswire"
	"dnslb/internal/engine"
	"dnslb/internal/metrics"
	"dnslb/internal/simcore"
)

// dohServer starts a server with the HTTP front end enabled, a metrics
// registry attached, and a mapper that classifies 10.d.0.0/16 client
// networks to domain d.
func dohServer(t *testing.T) (*Server, *metrics.Registry) {
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
		Name:  "DRR2-TTL/S_K",
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
	reg := metrics.NewRegistry()
	srv, err := New(Config{
		Zone:        "www.site.example",
		ServerAddrs: addrs,
		Policy:      policy,
		Mapper: func(a netip.Addr) int {
			if !a.IsValid() || !a.Is4() {
				return 0
			}
			return int(a.As4()[1]) % 20
		},
		Addr:     "127.0.0.1:0",
		HTTPAddr: "127.0.0.1:0",
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, reg
}

func dohBase(t *testing.T, srv *Server) string {
	t.Helper()
	if srv.httpLn == nil {
		t.Fatal("HTTP front end not bound")
	}
	return "http://" + srv.httpLn.Addr().String()
}

func TestDoHWireGetAndPost(t *testing.T) {
	srv, _ := dohServer(t)
	base := dohBase(t, srv)
	wire := testQueryWire(t)
	client := &http.Client{Timeout: 3 * time.Second}

	check := func(hr *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("status %s", hr.Status)
		}
		if ct := hr.Header.Get("Content-Type"); ct != "application/dns-message" {
			t.Fatalf("content type %q", ct)
		}
		body, err := io.ReadAll(hr.Body)
		if err != nil {
			t.Fatal(err)
		}
		msg, err := dnswire.Unpack(body)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Header.RCode != dnswire.RCodeNoError || len(msg.Answers) != 1 {
			t.Fatalf("rcode=%v answers=%d", msg.Header.RCode, len(msg.Answers))
		}
	}

	check(client.Get(base + "/dns-query?dns=" + base64.RawURLEncoding.EncodeToString(wire)))
	// Padded base64 is tolerated (curl users).
	check(client.Get(base + "/dns-query?dns=" + base64.URLEncoding.EncodeToString(wire)))
	check(client.Post(base+"/dns-query", "application/dns-message", bytes.NewReader(wire)))
}

func TestDoHWireRejections(t *testing.T) {
	srv, reg := dohServer(t)
	base := dohBase(t, srv)
	client := &http.Client{Timeout: 3 * time.Second}

	status := func(hr *http.Response, err error) int {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		_, _ = io.Copy(io.Discard, hr.Body)
		return hr.StatusCode
	}

	if got := status(client.Get(base + "/dns-query")); got != http.StatusBadRequest {
		t.Errorf("missing dns param: %d, want 400", got)
	}
	if got := status(client.Get(base + "/dns-query?dns=!!!not-base64!!!")); got != http.StatusBadRequest {
		t.Errorf("bad base64: %d, want 400", got)
	}
	if got := status(client.Get(base + "/dns-query?dns=" + base64.RawURLEncoding.EncodeToString(testQueryWire(t)) + "&pad=%zz")); got != http.StatusBadRequest {
		t.Errorf("malformed parameter beside a good dns: %d, want 400", got)
	}
	if got := status(client.Get(base + "/dns-query?dns=" + base64.RawURLEncoding.EncodeToString(testQueryWire(t)) + ";x=1")); got != http.StatusBadRequest {
		t.Errorf("semicolon separator: %d, want 400", got)
	}
	if got := status(client.Post(base+"/dns-query", "text/plain", strings.NewReader("hi"))); got != http.StatusUnsupportedMediaType {
		t.Errorf("wrong content type: %d, want 415", got)
	}
	if got := status(client.Post(base+"/dns-query", "application/dns-message",
		bytes.NewReader(make([]byte, maxDoHRequest+1)))); got != http.StatusBadRequest {
		t.Errorf("oversized body: %d, want 400", got)
	}
	req, err := http.NewRequest(http.MethodDelete, base+"/dns-query", nil)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	allow := hr.Header.Get("Allow")
	hr.Body.Close()
	if hr.StatusCode != http.StatusMethodNotAllowed || !strings.Contains(allow, "GET") {
		t.Errorf("DELETE: %d Allow=%q, want 405 with GET", hr.StatusCode, allow)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := seriesValue(t, buf.String(), `dnslb_doh_requests_total{outcome="bad_request"}`); got < 7 {
		t.Errorf("bad_request outcome counter = %v, want >= 7", got)
	}
}

func TestDoHJSONResolve(t *testing.T) {
	srv, _ := dohServer(t)
	base := dohBase(t, srv)
	client := &http.Client{Timeout: 3 * time.Second}

	hr, err := client.Get(base + "/resolve?name=www.site.example&type=A&edns_client_subnet=10.3.0.0/16")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %s", hr.Status)
	}
	var out struct {
		Status   uint16 `json:"Status"`
		Question []struct {
			Name string `json:"name"`
		} `json:"Question"`
		Answer []struct {
			Type uint16 `json:"type"`
			TTL  uint32 `json:"TTL"`
			Data string `json:"data"`
		} `json:"Answer"`
		Subnet string `json:"edns_client_subnet"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Status != 0 || len(out.Answer) != 1 {
		t.Fatalf("Status=%d answers=%d", out.Status, len(out.Answer))
	}
	if out.Answer[0].Type != uint16(dnswire.TypeA) || out.Answer[0].TTL == 0 {
		t.Errorf("answer = %+v", out.Answer[0])
	}
	addr, err := netip.ParseAddr(out.Answer[0].Data)
	if err != nil || !addr.Is4() {
		t.Errorf("answer data %q is not an IPv4 address", out.Answer[0].Data)
	}
	if out.Subnet != "10.3.0.0/16/16" {
		t.Errorf("edns_client_subnet = %q, want 10.3.0.0/16/16", out.Subnet)
	}

	// Bad parameters are 400s, not panics.
	for _, q := range []string{
		"/resolve",
		"/resolve?name=www.site.example&type=BOGUS",
		"/resolve?name=www.site.example&edns_client_subnet=not-an-addr",
		// A malformed pair refuses the request; it used to be dropped, and
		// the first of these answered as the A query it does not ask for.
		"/resolve?name=www.site.example&type=%zz",
		"/resolve?name=www.site.example;type=TXT",
	} {
		hr, err := client.Get(base + q)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, hr.Body)
		hr.Body.Close()
		if hr.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, hr.StatusCode)
		}
	}
}

// TestMultiTransportEquivalence is the PR's acceptance gate: the same
// wire query sent over UDP, pipelined TCP and DoH must produce
// byte-equivalent answers (the message ID is the client's own and the
// decision differs per query; equivalence means structure, zone,
// record shape and scope, not the rotated server address).
func TestMultiTransportEquivalence(t *testing.T) {
	srv, reg := dohServer(t)

	subnet := netip.MustParsePrefix("10.5.0.0/16")
	build := func(id uint16) []byte {
		q := &dnswire.Message{
			Header: dnswire.Header{ID: id, RecursionDesired: true},
			Questions: []dnswire.Question{
				{Name: "www.site.example", Type: dnswire.TypeA, Class: dnswire.ClassIN},
			},
		}
		if err := q.SetClientSubnet(dnswire.ClientSubnet{Prefix: subnet}, dnswire.MaxUDPPayload); err != nil {
			t.Fatal(err)
		}
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}

	// UDP.
	uconn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer uconn.Close()
	if _, err := uconn.Write(build(1)); err != nil {
		t.Fatal(err)
	}
	_ = uconn.SetReadDeadline(time.Now().Add(3 * time.Second))
	ubuf := make([]byte, 65535)
	n, err := uconn.Read(ubuf)
	if err != nil {
		t.Fatal(err)
	}
	udpResp := append([]byte(nil), ubuf[:n]...)

	// Pipelined TCP.
	tconn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tconn.Close()
	if _, err := tconn.Write(frameTCP(build(2))); err != nil {
		t.Fatal(err)
	}
	_ = tconn.SetReadDeadline(time.Now().Add(3 * time.Second))
	tcpResp, err := readTCPResponse(tconn)
	if err != nil {
		t.Fatal(err)
	}

	// DoH POST.
	hr, err := (&http.Client{Timeout: 3 * time.Second}).Post(
		dohBase(t, srv)+"/dns-query", "application/dns-message", bytes.NewReader(build(3)))
	if err != nil {
		t.Fatal(err)
	}
	dohResp, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Normalize: zero the ID and the answer A record's last octet (the
	// scheduler legitimately rotates servers between queries), then
	// require byte equality.
	normalize := func(raw []byte) ([]byte, netip.Addr, uint8) {
		msg, err := dnswire.Unpack(raw)
		if err != nil {
			t.Fatalf("unparseable response: %v", err)
		}
		if msg.Header.RCode != dnswire.RCodeNoError || len(msg.Answers) != 1 {
			t.Fatalf("rcode=%v answers=%d", msg.Header.RCode, len(msg.Answers))
		}
		a := msg.Answers[0].Data.(dnswire.A)
		cs, ok := msg.ClientSubnet()
		if !ok {
			t.Fatal("response lost the ECS echo")
		}
		out := append([]byte(nil), raw...)
		out[0], out[1] = 0, 0 // ID
		// Find and zero the 4-byte A rdata (last 4 bytes of the answer
		// record) and the TTL, which adapts with the rotating choice.
		idx := bytes.LastIndex(out, a.Addr.AsSlice())
		if idx < 0 {
			t.Fatal("answer address bytes not found")
		}
		copy(out[idx:idx+4], []byte{0, 0, 0, 0})
		copy(out[idx-6:idx-2], []byte{0, 0, 0, 0}) // 4-byte TTL, then 2-byte RDLENGTH
		return out, a.Addr, cs.ScopePrefixLen
	}

	nu, au, su := normalize(udpResp)
	nt, at, st := normalize(tcpResp)
	nd, ad, sd := normalize(dohResp)
	if !bytes.Equal(nu, nt) || !bytes.Equal(nu, nd) {
		t.Errorf("normalized responses differ across transports:\nudp %x\ntcp %x\ndoh %x", nu, nt, nd)
	}
	if su != 16 || st != 16 || sd != 16 {
		t.Errorf("ECS scopes = %d/%d/%d, want 16 on every transport", su, st, sd)
	}
	for _, a := range []netip.Addr{au, at, ad} {
		if a4 := a.As4(); a4[0] != 10 || a4[3] < 1 || a4[3] > 7 {
			t.Errorf("answer %v is not a site server", a)
		}
	}

	// Per-transport counters saw exactly one query each.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, tr := range []string{"udp", "tcp", "doh"} {
		if got := seriesValue(t, text, fmt.Sprintf(`dnslb_dns_queries_total{transport=%q}`, tr)); got != 1 {
			t.Errorf("queries_total{transport=%q} = %v, want 1", tr, got)
		}
	}
	if got := seriesValue(t, text, `dnslb_doh_requests_total{outcome="ok"}`); got != 1 {
		t.Errorf("doh ok counter = %v, want 1", got)
	}
	// The scope histogram observed all three scoped answers.
	if got := seriesValue(t, text, "dnslb_dns_ecs_scope_prefix_count"); got != 3 {
		t.Errorf("ecs scope histogram count = %v, want 3", got)
	}
}

// TestScopedAnswersNeverCrossSubnets interleaves queries from two client
// subnets: each must only ever see its own prefix echoed, and a
// subnet-blind query no ECS option at all.
func TestScopedAnswersNeverCrossSubnets(t *testing.T) {
	srv, _ := dohServer(t)

	query := func(prefix netip.Prefix) dnswire.ClientSubnet {
		t.Helper()
		r := &dnsclient.Resolver{
			Server:       srv.Addr().String(),
			Timeout:      2 * time.Second,
			ClientSubnet: prefix,
		}
		resp, err := r.Exchange(context.Background(), "www.site.example", dnswire.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		cs, ok := resp.ClientSubnet()
		if !ok {
			t.Fatal("scoped answer lost its ECS echo")
		}
		return cs
	}

	a := netip.MustParsePrefix("10.4.0.0/16")
	b := netip.MustParsePrefix("10.9.0.0/16")
	for i := 0; i < 10; i++ {
		pick := a
		if i%2 == 1 {
			pick = b
		}
		cs := query(pick)
		if cs.Prefix != pick {
			t.Fatalf("query %d for %v answered with ECS %v: answer crossed subnets",
				i, pick, cs.Prefix)
		}
	}

	// And a subnet-blind query must not receive anyone's ECS echo.
	r := &dnsclient.Resolver{Server: srv.Addr().String(), Timeout: 2 * time.Second}
	resp, err := r.Exchange(context.Background(), "www.site.example", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resp.ClientSubnet(); ok {
		t.Error("ECS-less query received an ECS option")
	}
}

// TestMixedCaseQuestionEchoed is the 0x20 contract: a resolver that
// randomizes the case of the query name matches the response's question
// against what it sent byte for byte, so every transport must echo the
// question as it arrived, and the answer's owner name must resolve to
// that spelling.
func TestMixedCaseQuestionEchoed(t *testing.T) {
	srv, _ := dohServer(t)

	// build packs a query for name and re-spells the packed name in
	// alternating case (the packer lower-cases).
	build := func(id uint16, name string, qtype dnswire.Type, subnet netip.Prefix) (wire, question []byte) {
		t.Helper()
		q := &dnswire.Message{
			Header:    dnswire.Header{ID: id},
			Questions: []dnswire.Question{{Name: name, Type: qtype, Class: dnswire.ClassIN}},
		}
		if subnet.IsValid() {
			if err := q.SetClientSubnet(dnswire.ClientSubnet{Prefix: subnet}, dnswire.MaxUDPPayload); err != nil {
				t.Fatal(err)
			}
		}
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		end := 12 + len(dnswire.CanonicalName(name)) + 1
		upper := true
		for i := 12; i < end; i++ {
			if c := wire[i]; 'a' <= c && c <= 'z' {
				if upper {
					wire[i] = c - 'a' + 'A'
				}
				upper = !upper
			}
		}
		return wire, wire[12 : end+4]
	}
	overUDP := func(wire []byte) []byte {
		t.Helper()
		conn, err := net.Dial("udp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
		buf := make([]byte, 65535)
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		return buf[:n]
	}
	overTCP := func(wire []byte) []byte {
		t.Helper()
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(frameTCP(wire)); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
		resp, err := readTCPResponse(conn)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	overDoH := func(wire []byte) []byte {
		t.Helper()
		hr, err := (&http.Client{Timeout: 3 * time.Second}).Post(
			dohBase(t, srv)+"/dns-query", "application/dns-message", bytes.NewReader(wire))
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		resp, err := io.ReadAll(hr.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	subnet := netip.MustParsePrefix("10.5.0.0/16")
	for i, tr := range []struct {
		name string
		send func([]byte) []byte
	}{{"udp", overUDP}, {"tcp", overTCP}, {"doh", overDoH}} {
		for j, ecs := range []netip.Prefix{{}, subnet} {
			wire, question := build(uint16(1+2*i+j), "www.site.example", dnswire.TypeA, ecs)
			if bytes.Equal(question, bytes.ToLower(question)) {
				t.Fatal("query name is not mixed-case; the test exercises nothing")
			}
			resp := tr.send(wire)
			if len(resp) < 12+len(question)+2 || !bytes.Equal(resp[12:12+len(question)], question) {
				t.Fatalf("%s ecs=%v: question not echoed as sent:\nsent %q\n got %q", tr.name, ecs.IsValid(), question, resp[12:])
			}
			if owner := resp[12+len(question):][:2]; owner[0] != 0xC0 || owner[1] != 12 {
				t.Errorf("%s: answer owner name %x is not a pointer to the echoed question", tr.name, owner)
			}
			msg, err := dnswire.Unpack(resp)
			if err != nil {
				t.Fatalf("%s: unparseable response: %v", tr.name, err)
			}
			if msg.Header.RCode != dnswire.RCodeNoError || len(msg.Answers) != 1 || msg.Answers[0].Name != "www.site.example." {
				t.Errorf("%s: rcode %v, answers %v", tr.name, msg.Header.RCode, msg.Answers)
			}
			if _, ok := msg.ClientSubnet(); ok != ecs.IsValid() {
				t.Errorf("%s: ECS echo present = %v, want %v", tr.name, ok, ecs.IsValid())
			}
		}
	}

	// The other shapes echo the spelling too, and their records' owner
	// names — pointers into that spelling for a name at or under the zone,
	// the zone's own bytes beside a sibling name — decode to the zone.
	for i, c := range []struct {
		name   string
		qtype  dnswire.Type
		rcode  dnswire.RCode
		an, ns int
	}{
		{"ftp.site.example", dnswire.TypeA, dnswire.RCodeNXDomain, 0, 1},
		{"ftp.www.site.example", dnswire.TypeA, dnswire.RCodeNXDomain, 0, 1},
		{"www.site.example", dnswire.TypeAAAA, dnswire.RCodeNoError, 0, 1},
		{"www.site.example", dnswire.TypeTXT, dnswire.RCodeNoError, 1, 0},
	} {
		wire, question := build(uint16(90+i), c.name, c.qtype, netip.Prefix{})
		resp := overUDP(wire)
		if len(resp) < 12+len(question) || !bytes.Equal(resp[12:12+len(question)], question) {
			t.Fatalf("%s %v: question not echoed as sent:\nsent %q\n got %q", c.name, c.qtype, question, resp[12:])
		}
		msg, err := dnswire.Unpack(resp)
		if err != nil {
			t.Fatalf("%s %v: unparseable response: %v", c.name, c.qtype, err)
		}
		if msg.Header.RCode != c.rcode || len(msg.Answers) != c.an || len(msg.Authority) != c.ns {
			t.Fatalf("%s %v: rcode %v, answers %v, authority %v", c.name, c.qtype, msg.Header.RCode, msg.Answers, msg.Authority)
		}
		for _, rr := range append(msg.Answers, msg.Authority...) {
			if rr.Name != "www.site.example." {
				t.Errorf("%s %v: record owner %q, want the zone", c.name, c.qtype, rr.Name)
			}
		}
		if c.name != "ftp.site.example" {
			if owner := resp[12+len(question)]; owner&0xC0 != 0xC0 {
				t.Errorf("%s %v: record owner is not a pointer into the echoed question", c.name, c.qtype)
			}
		}
	}
}

// TestDoHResolverTransport exercises the dnsclient "doh" transport
// against the real front end.
func TestDoHResolverTransport(t *testing.T) {
	srv, _ := dohServer(t)
	r := &dnsclient.Resolver{
		Server:    srv.httpLn.Addr().String(),
		Transport: "doh",
		Timeout:   2 * time.Second,
	}
	answers, err := r.LookupA(context.Background(), "www.site.example")
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 || !answers[0].Addr.Is4() {
		t.Fatalf("answers = %v", answers)
	}
}

// FuzzDoHRequest fuzzes the wire endpoint's request parsing: arbitrary
// methods, URLs and bodies must never panic the handler; the handler
// either serves a DNS response or fails with an HTTP error.
func FuzzDoHRequest(f *testing.F) {
	cluster, err := core.ScaledCluster(3, 20, 300)
	if err != nil {
		f.Fatal(err)
	}
	state, err := core.NewState(cluster, 5)
	if err != nil {
		f.Fatal(err)
	}
	policy, err := core.NewPolicy(core.PolicyConfig{
		Name:  "RR",
		State: state,
		Rand:  simcore.NewStream(1, "server"),
		Now:   func() float64 { return 0 },
	})
	if err != nil {
		f.Fatal(err)
	}
	srv, err := New(Config{
		Zone:        "www.site.example",
		ServerAddrs: []netip.Addr{netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"), netip.MustParseAddr("10.0.0.3")},
		Policy:      policy,
		Addr:        "127.0.0.1:0",
		HTTPAddr:    "127.0.0.1:0",
	})
	if err != nil {
		f.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = srv.Close() })
	base := dohBase(&testing.T{}, srv)
	client := &http.Client{Timeout: 2 * time.Second}

	wire := func() []byte {
		w, _ := (&dnswire.Message{
			Header:    dnswire.Header{ID: 1},
			Questions: []dnswire.Question{{Name: "www.site.example", Type: dnswire.TypeA, Class: dnswire.ClassIN}},
		}).Pack()
		return w
	}()
	f.Add("GET", "/dns-query?dns="+base64.RawURLEncoding.EncodeToString(wire), []byte{})
	f.Add("POST", "/dns-query", wire)
	f.Add("GET", "/resolve?name=www.site.example&type=A", []byte{})
	f.Add("GET", "/resolve?name=x&edns_client_subnet=10.0.0.0/8", []byte{})
	f.Add("PUT", "/dns-query?dns=AAAA", []byte("junk"))

	f.Fuzz(func(t *testing.T, method, target string, body []byte) {
		if strings.ContainsAny(method, " \t\r\n/") || method == "" {
			t.Skip()
		}
		if !strings.HasPrefix(target, "/") || strings.ContainsAny(target, " \r\n") {
			t.Skip()
		}
		req, err := http.NewRequest(method, base+target, bytes.NewReader(body))
		if err != nil {
			t.Skip()
		}
		req.Header.Set("Content-Type", "application/dns-message")
		hr, err := client.Do(req)
		if err != nil {
			// Transport-level refusals are fine; panics in the handler
			// would surface as 502-style errors plus a crashed test binary.
			return
		}
		_, _ = io.Copy(io.Discard, hr.Body)
		hr.Body.Close()
	})
}

// jsonFromWire renders a wire response the way /resolve did when it ran
// a wire exchange with itself and decoded the answer: the reference for
// the JSON renderer that replaced it.
func jsonFromWire(t *testing.T, wire []byte) dohJSONResponse {
	t.Helper()
	m, err := dnswire.Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	out := dohJSONResponse{Status: uint16(m.Header.RCode), TC: m.Header.Truncated}
	for _, q := range m.Questions {
		out.Question = append(out.Question, dohJSONQ{Name: q.Name, Type: uint16(q.Type)})
	}
	for _, rr := range m.Answers {
		a := dohJSONAnswer{Name: rr.Name, Type: uint16(rr.Type), TTL: rr.TTL}
		switch v := rr.Data.(type) {
		case dnswire.A:
			a.Data = v.Addr.String()
		case dnswire.TXT:
			a.Data = strings.Join(v.Strings, " ")
		}
		out.Answer = append(out.Answer, a)
	}
	if cs, ok := m.ClientSubnet(); ok {
		out.Subnet = fmt.Sprintf("%v/%d/%d", cs.Prefix.Addr(), cs.Prefix.Bits(), cs.ScopePrefixLen)
	}
	return out
}

// TestResolveJSONMatchesWire holds the JSON renderer to the wire
// renderer: the /resolve body equals, field for field, a rendering of
// the wire response to the same query over POST /dns-query — for each
// shape, from the policy and for a rate-limited source. Both endpoints
// are driven through the framer on a hand-made connection, so counters
// and limiter are seen to cover /resolve as they cover the wire path.
func TestResolveJSONMatchesWire(t *testing.T) {
	queries := []struct {
		name, qtype, subnet string
	}{
		{"www.site.example", "A", "10.3.0.0/16"},
		{"www.site.example", "A", "2001:db8:4:5600::/56"},
		{"WWW.Site.Example.", "TXT", ""},
		{"www.site.example", "AAAA", ""},
		{"ftp.site.example", "A", "10.3.7.0/24"},
	}
	check := func(t *testing.T, srv *Server, status uint16, answered uint64) {
		t.Helper()
		client, server := handAccept(t)
		done := serveByHand(srv, server, dohFramer)
		defer func() {
			_ = client.Close()
			<-done
		}()
		_ = client.SetDeadline(time.Now().Add(10 * time.Second))
		replies := bufio.NewReader(client)
		for _, c := range queries {
			qtype, _ := parseDoHType([]byte(c.qtype))
			m := &dnswire.Message{Questions: []dnswire.Question{{Name: c.name, Type: qtype, Class: dnswire.ClassIN}}}
			target := "/resolve?name=" + c.name + "&type=" + c.qtype
			if c.subnet != "" {
				if err := m.SetClientSubnet(dnswire.ClientSubnet{Prefix: netip.MustParsePrefix(c.subnet)}, dnswire.MaxUDPPayload); err != nil {
					t.Fatal(err)
				}
				target += "&edns_client_subnet=" + c.subnet
			}
			wire, err := m.Pack()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := client.Write(append(dohPost(wire), dohGet(target)...)); err != nil {
				t.Fatal(err)
			}
			wireRec, jsonRec := readDoHReply(t, replies), readDoHReply(t, replies)
			if wireRec.status != http.StatusOK || jsonRec.status != http.StatusOK {
				t.Fatalf("%v: status %d over /dns-query, %d over /resolve", c, wireRec.status, jsonRec.status)
			}
			want := jsonFromWire(t, wireRec.body)
			var got dohJSONResponse
			if err := json.Unmarshal(jsonRec.body, &got); err != nil {
				t.Fatalf("%v: %v in %s", c, err, jsonRec.body)
			}
			if status != 0 && got.Status != status {
				t.Errorf("%v: Status %d, want %d", c, got.Status, status)
			}
			// The two exchanges are two decisions: the scheduler rotates the
			// server, and the TTL adapts to it.
			for _, r := range []*dohJSONResponse{&got, &want} {
				if len(r.Answer) == 1 && r.Answer[0].Type == uint16(dnswire.TypeA) {
					a := &r.Answer[0]
					if addr, err := netip.ParseAddr(a.Data); err != nil || addr.As4()[3] < 1 || addr.As4()[3] > 7 || a.TTL == 0 {
						t.Errorf("%v: answer %+v is not a site server with a TTL", c, *a)
					}
					a.Data, a.TTL = "", 0
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v:\n/resolve   %+v\n/dns-query %+v", c, got, want)
			}
		}
		n := uint64(len(queries))
		if st := srv.Stats(); st.Queries != 2*n || st.Answered != answered {
			t.Errorf("stats %+v, want %d queries, %d answered", st, 2*n, answered)
		}
		if got := srv.statsTotal(cTransport + statsCounter(engine.TransportDoH)); got != 2*n {
			t.Errorf("%d queries counted on the DoH transport, want %d", got, 2*n)
		}
		if ok := srv.dohOK.Load(); ok != 2*n {
			t.Errorf("doh ok counter = %d, want %d", ok, 2*n)
		}
	}

	t.Run("policy", func(t *testing.T) {
		srv, _ := testServerNoStart(t, "DRR2-TTL/S_K")
		check(t, srv, 0, 8)
	})
	t.Run("rate-limited", func(t *testing.T) {
		srv, _ := testServerNoStart(t, "DRR2-TTL/S_K")
		srv.limiter = NewRateLimiter(1e-9, 1)
		srv.limiter.Allow(netip.MustParseAddr("127.0.0.1")) // the hand-made connection's client; the burst's one token
		check(t, srv, uint16(dnswire.RCodeRefused), 0)
		if got := srv.Stats().RateLimited; got != uint64(2*len(queries)) {
			t.Errorf("%d queries rate-limited, want %d", got, 2*len(queries))
		}
	})
}
