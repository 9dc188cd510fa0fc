package dnsserver

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"dnslb/internal/dnswire"
	"dnslb/internal/engine"
)

// The DoH framer on the stream loop: the HTTP/1.1 subset it serves, rule
// by rule, and the loop's behaviour under it — the TCP tests of
// pipeline_test.go, for HTTP. Go's own client is the interoperability
// oracle in doh_test.go; here the requests are raw bytes on a hand-made
// connection (handAccept, serveByHand), or go straight to the framer.

// dohPost is the workload's POST: benchmark/loadgen's request bytes.
func dohPost(wire []byte) []byte {
	return append(fmt.Appendf(nil, "POST /dns-query HTTP/1.1\r\nHost: dns.test\r\nContent-Type: application/dns-message\r\nContent-Length: %d\r\n\r\n", len(wire)), wire...)
}

// dohGet is a GET for target with the one header the workload sends.
func dohGet(target string) []byte {
	return []byte("GET " + target + " HTTP/1.1\r\nHost: dns.test\r\n\r\n")
}

// dohResolve is the workload's GET.
const dohResolve = "/resolve?name=www.site.example&type=A&edns_client_subnet=10.4.7.0/24"

// dohReply is one response as net/http's client reads it.
type dohReply struct {
	status int
	header http.Header
	body   []byte
	// closing: the response says the connection ends behind it.
	closing bool
}

// readDoHReply reads one response with net/http's parser and holds it to
// what every response of the framer has: HTTP/1.1, a Date, a Content-Type
// and a Content-Length that is the body's length.
func readDoHReply(t testing.TB, br *bufio.Reader) dohReply {
	t.Helper()
	r, err := parseDoHReply(br)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func parseDoHReply(br *bufio.Reader) (dohReply, error) {
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return dohReply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return dohReply{}, fmt.Errorf("status %d: body: %w", resp.StatusCode, err)
	}
	if resp.Proto != "HTTP/1.1" || resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		return dohReply{}, fmt.Errorf("status %d: proto %q, Content-Length %d for a body of %d, Transfer-Encoding %v",
			resp.StatusCode, resp.Proto, resp.ContentLength, len(body), resp.TransferEncoding)
	}
	if _, err := http.ParseTime(resp.Header.Get("Date")); err != nil || resp.Header.Get("Content-Type") == "" {
		return dohReply{}, fmt.Errorf("status %d: Date %q, Content-Type %q", resp.StatusCode, resp.Header.Get("Date"), resp.Header.Get("Content-Type"))
	}
	return dohReply{status: resp.StatusCode, header: resp.Header, body: body, closing: resp.Close}, nil
}

// wantAnswer requires a 200 carrying a NOERROR answer to query id.
func wantAnswer(t *testing.T, r dohReply, id uint16) {
	t.Helper()
	if r.status != http.StatusOK || r.header.Get("Content-Type") != "application/dns-message" {
		t.Fatalf("status %d, content type %q", r.status, r.header.Get("Content-Type"))
	}
	msg, err := dnswire.Unpack(r.body)
	if err != nil {
		t.Fatalf("response %d unparseable: %v", id, err)
	}
	if msg.Header.ID != id || msg.Header.RCode != dnswire.RCodeNoError || len(msg.Answers) != 1 {
		t.Fatalf("id=%d rcode=%v answers=%d, want the NOERROR answer to query %d", msg.Header.ID, msg.Header.RCode, len(msg.Answers), id)
	}
}

// dohBurst is POSTs with IDs 1..depth back to back.
func dohBurst(t *testing.T, depth int) []byte {
	t.Helper()
	var burst []byte
	for id := 1; id <= depth; id++ {
		burst = append(burst, dohPost(pipelineQueryWire(t, uint16(id)))...)
	}
	return burst
}

// TestDoHFramerSubset names every rule of the subset (the head of
// doh.go). Each request goes down a fresh hand-made connection with a
// plain POST behind it, and the client's half of the connection is then
// closed: a kept connection answers both, a closed one only the first.
func TestDoHFramerSubset(t *testing.T) {
	wire := pipelineQueryWire(t, 1)
	if len(wire) != 34 {
		t.Fatalf("the query is %d bytes; the requests below say 34", len(wire))
	}
	b64 := base64.RawURLEncoding.EncodeToString(wire)
	post := func(head string, body []byte) []byte {
		return append([]byte(strings.ReplaceAll(head, "\n", "\r\n")), body...)
	}
	response := bytes.Clone(wire)
	response[2] |= 0x80 // QR: a message the handler drops
	const (
		kept   = false
		closed = true
	)
	cases := []struct {
		name    string
		request []byte
		status  int
		closed  bool
		body    string // what the response body must contain
		bad     uint64 // dohBadRequest's increment
	}{
		// Accepted.
		{"accepted: POST /dns-query, kept alive", dohPost(wire), 200, kept, "", 0},
		{"accepted: GET /dns-query", dohGet("/dns-query?dns=" + b64), 200, kept, "", 0},
		{"accepted: GET /resolve", dohGet(dohResolve), 200, kept, `"edns_client_subnet":"10.4.7.0/24/24"`, 0},
		{"accepted: Connection: close is answered, then closed",
			post("POST /dns-query HTTP/1.1\nConnection: close\nContent-Type: application/dns-message\nContent-Length: 34\n\n", wire), 200, closed, "", 0},
		{"accepted: close among other connection options",
			post("POST /dns-query HTTP/1.1\nConnection: TE , Close\nContent-Type: application/dns-message\nContent-Length: 34\n\n", wire), 200, closed, "", 0},
		{"accepted: Connection: keep-alive changes nothing",
			post("POST /dns-query HTTP/1.1\nConnection: keep-alive\nContent-Type: application/dns-message\nContent-Length: 34\n\n", wire), 200, kept, "", 0},
		{"accepted: HTTP/1.0 is answered, then closed",
			post("POST /dns-query HTTP/1.0\nConnection: keep-alive\nContent-Type: application/dns-message\nContent-Length: 34\n\n", wire), 200, closed, "", 0},
		{"accepted: header names in any case, optional space around values",
			post("POST /dns-query HTTP/1.1\ncontent-type:application/dns-message\nCONTENT-LENGTH: \t34 \n\n", wire), 200, kept, "", 0},
		{"accepted: other headers are skipped",
			post("POST /dns-query HTTP/1.1\nHost: x\nUser-Agent: a b\tc\nAccept: */*\nX-Empty:\nContent-Type: application/dns-message\nContent-Length: 34\nCookie: "+strings.Repeat("c", 4000)+"\n\n", wire), 200, kept, "", 0},
		{"accepted: the first Content-Type counts",
			post("POST /dns-query HTTP/1.1\nContent-Type: application/dns-message\nContent-Type: text/plain\nContent-Length: 34\n\n", wire), 200, kept, "", 0},
		{"accepted: a GET's body is framed and ignored",
			post("GET /dns-query?dns="+b64+" HTTP/1.1\nContent-Length: 5\n\n", []byte("hello")), 200, kept, "", 0},
		{"accepted: a head of exactly 8 KiB",
			post("GET "+dohResolve+" HTTP/1.1\nX: "+strings.Repeat("x", maxDoHHead-len("GET "+dohResolve+" HTTP/1.1\r\nX: \r\n\r\n"))+"\n\n", nil), 200, kept, "", 0},

		// Framing errors: answered once, then closed.
		{"431: a head over 8 KiB",
			post("GET "+dohResolve+" HTTP/1.1\nX: "+strings.Repeat("x", maxDoHHead)+"\n\n", nil), 431, closed, "", 0},
		{"431: 9 KiB without a line end", []byte("GET /" + strings.Repeat("x", 9<<10)), 431, closed, "", 0},
		{"400: request line of two words", post("GET /dns-query\n\n", nil), 400, closed, "malformed request line", 0},
		{"400: request line of four words", post("GET /dns-query extra HTTP/1.1\n\n", nil), 400, closed, "malformed request target", 0},
		{"400: method that is no token", post("G@T /dns-query HTTP/1.1\n\n", nil), 400, closed, "malformed request line", 0},
		{"400: empty first line", post("\nGET /dns-query HTTP/1.1\n\n", nil), 400, closed, "malformed request line", 0},
		{"400: target that is no path", post("GET dns-query HTTP/1.1\n\n", nil), 400, closed, "malformed request target", 0},
		{"400: control character in the target", post("GET /dns-query?\x01 HTTP/1.1\n\n", nil), 400, closed, "control character", 0},
		{"400: tab in the target", post("GET /dns-query?\t HTTP/1.1\n\n", nil), 400, closed, "malformed request target", 0},
		{"400: control character in a header value", post("GET "+dohResolve+" HTTP/1.1\nX: a\rb\n\n", nil), 400, closed, "control character", 0},
		{"400: percent-escape in the path", post("GET /dns%2Dquery HTTP/1.1\n\n", nil), 400, closed, "malformed request target", 0},
		{"400: version that is none", post("GET /dns-query FTP/1.1\n\n", nil), 400, closed, "malformed request line", 0},
		{"400: bare LF", []byte("GET " + dohResolve + " HTTP/1.1\nHost: x\n\n"), 400, closed, "CRLF", 0},
		{"400: header line without a colon", post("GET "+dohResolve+" HTTP/1.1\nHost x\n\n", nil), 400, closed, "malformed header line", 0},
		{"400: header name with a space", post("GET "+dohResolve+" HTTP/1.1\nHost : x\n\n", nil), 400, closed, "malformed header line", 0},
		{"400: obsolete line folding", post("GET "+dohResolve+" HTTP/1.1\nX-Long: a\n b\n\n", nil), 400, closed, "malformed header line", 0},
		{"400: Content-Length that is no number",
			post("POST /dns-query HTTP/1.1\nContent-Type: application/dns-message\nContent-Length: 34x\n\n", wire), 400, closed, "bad Content-Length", 0},
		{"400: signed Content-Length",
			post("POST /dns-query HTTP/1.1\nContent-Type: application/dns-message\nContent-Length: +34\n\n", wire), 400, closed, "bad Content-Length", 0},
		{"400: empty Content-Length",
			post("POST /dns-query HTTP/1.1\nContent-Type: application/dns-message\nContent-Length:\n\n", wire), 400, closed, "bad Content-Length", 0},
		{"400: conflicting Content-Lengths",
			post("POST /dns-query HTTP/1.1\nContent-Type: application/dns-message\nContent-Length: 34\nContent-Length: 30\n\n", wire), 400, closed, "bad Content-Length", 0},
		{"400: repeated Content-Length, even in agreement",
			post("POST /dns-query HTTP/1.1\nContent-Type: application/dns-message\nContent-Length: 34\ncontent-length: 34\n\n", wire), 400, closed, "bad Content-Length", 0},
		{"400: body over maxDoHRequest, before the body is read",
			post("POST /dns-query HTTP/1.1\nContent-Type: application/dns-message\nContent-Length: 4097\n\n", nil), 400, closed, "bad dns message", 1},
		{"400: body length beyond any integer",
			post("POST /dns-query HTTP/1.1\nContent-Length: 99999999999999999999999999\n\n", nil), 400, closed, "bad dns message", 1},
		{"501: Transfer-Encoding, with or without a length",
			post("POST /dns-query HTTP/1.1\nContent-Length: 34\ntransfer-encoding: chunked\n\n", wire), 501, closed, "", 0},
		{"417: Expect", post("POST /dns-query HTTP/1.1\nExpect: 100-continue\nContent-Length: 34\n\n", wire), 417, closed, "", 0},
		{"505: HTTP/2.0", post("GET /dns-query HTTP/2.0\n\n", nil), 505, closed, "", 0},
		{"505: HTTP/0.9", post("GET /dns-query HTTP/0.9\n\n", nil), 505, closed, "", 0},

		// Semantic errors: the request was framed, the connection is kept.
		{"405 with Allow: other method on /dns-query", post("DELETE /dns-query HTTP/1.1\n\n", nil), 405, kept, "method not allowed", 1},
		{"405 with Allow: POST on /resolve",
			post("POST "+dohResolve+" HTTP/1.1\nContent-Length: 34\n\n", wire), 405, kept, "method not allowed", 1},
		{"405: methods are case-sensitive", post("get "+dohResolve+" HTTP/1.1\n\n", nil), 405, kept, "", 1},
		{"405: HEAD is answered, then closed", post("HEAD /dns-query HTTP/1.1\n\n", nil), 405, closed, "", 1},
		{"415: POST of another content type",
			post("POST /dns-query HTTP/1.1\nContent-Type: text/plain\nContent-Length: 34\n\n", wire), 415, kept, "application/dns-message", 1},
		{"415: POST without a content type", post("POST /dns-query HTTP/1.1\nContent-Length: 34\n\n", wire), 415, kept, "", 1},
		{"400 bad dns message: empty POST",
			post("POST /dns-query HTTP/1.1\nContent-Type: application/dns-message\n\n", nil), 400, kept, "bad dns message", 1},
		{"400 bad dns message: GET without ?dns=", dohGet("/dns-query"), 400, kept, "bad dns message", 1},
		{"400 bad dns message: GET of bad base64", dohGet("/dns-query?dns=!!!"), 400, kept, "bad dns message", 1},
		{"400 missing name", dohGet("/resolve?type=A"), 400, kept, "missing name parameter", 1},
		{"400 bad type", dohGet("/resolve?name=www.site.example&type=BOGUS"), 400, kept, "bad type parameter", 1},
		{"400 bad edns_client_subnet", dohGet("/resolve?name=www.site.example&edns_client_subnet=nope"), 400, kept, "bad edns_client_subnet parameter", 1},
		{"404: any other path", dohGet("/dns-query/"), 404, kept, "404 page not found", 0},
		{"404: absolute path only", dohGet("//dns-query"), 404, kept, "", 0},
		{"500 query dropped", dohPost(response), 500, kept, "query dropped", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srv, _ := testServerNoStart(t, "RR")
			client, server := handAccept(t)
			done := serveByHand(srv, server, dohFramer)
			if _, err := client.Write(append(bytes.Clone(c.request), dohPost(pipelineQueryWire(t, 2))...)); err != nil {
				t.Fatal(err)
			}
			if err := client.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
			br := bufio.NewReader(client)
			r := readDoHReply(t, br)
			if r.status != c.status || !strings.Contains(string(r.body), c.body) {
				t.Fatalf("status %d, body %q; want %d with %q", r.status, r.body, c.status, c.body)
			}
			if r.closing != c.closed {
				t.Errorf("response announces close = %v, want %v", r.closing, c.closed)
			}
			if c.status == 200 && r.header.Get("Content-Type") == "application/dns-message" {
				wantAnswer(t, r, 1)
			}
			if c.status == 405 && !strings.Contains(r.header.Get("Allow"), "GET") {
				t.Errorf("405 with Allow %q", r.header.Get("Allow"))
			}
			if !c.closed {
				wantAnswer(t, readDoHReply(t, br), 2)
			}
			if rest, err := io.ReadAll(br); err != nil || len(rest) != 0 {
				t.Errorf("after the last response: %q, %v; want EOF", rest, err)
			}
			<-done
			wantOK := uint64(0)
			if c.status == 200 {
				wantOK++
			}
			if !c.closed {
				wantOK++
			}
			wantDropped := uint64(0)
			if c.status == 500 {
				wantDropped = 1
			}
			if ok, bad, dropped := srv.dohOK.Load(), srv.dohBadRequest.Load(), srv.dohDropped.Load(); ok != wantOK || bad != c.bad || dropped != wantDropped {
				t.Errorf("counters ok=%d bad_request=%d dropped=%d, want %d/%d/%d", ok, bad, dropped, wantOK, c.bad, wantDropped)
			}
		})
	}
}

// TestDoHNeverTruncates: the largest response there is, 564 bytes, leaves
// whole over DoH (math.MaxUint16), where UDP sends it truncated.
func TestDoHNeverTruncates(t *testing.T) {
	d := newDoHDirect(shapesServer(t, longSOAZone))
	r := d.exchange(t, dohPost(packQuery(t, 1, dnswire.OpQuery, longZone, dnswire.TypeA)))
	if r.status != 200 || len(r.body) != 564 || r.body[2]&0x02 != 0 {
		t.Fatalf("status %d, %d bytes, flags %08b; want the 564-byte NXDOMAIN without TC", r.status, len(r.body), r.body[2])
	}
}

// TestDoHPeerAddressOncePerConn: the framer's source address is the
// connection's peer, as on TCP — the limiter refuses the loopback client
// its second query, whatever a header says.
func TestDoHPeerAddressOncePerConn(t *testing.T) {
	srv, _ := testServerNoStart(t, "RR")
	srv.limiter = NewRateLimiter(1e-9, 1)
	client, server := handAccept(t)
	done := serveByHand(srv, server, dohFramer)
	forwarded := bytes.Replace(dohPost(pipelineQueryWire(t, 2)), []byte("Host:"), []byte("X-Forwarded-For: 192.0.2.9\r\nHost:"), 1)
	if _, err := client.Write(append(dohPost(pipelineQueryWire(t, 1)), forwarded...)); err != nil {
		t.Fatal(err)
	}
	_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(client)
	wantAnswer(t, readDoHReply(t, br), 1)
	if r := readDoHReply(t, br); r.status != 200 || dnswire.RCode(r.body[3]&0xF) != dnswire.RCodeRefused {
		t.Fatalf("second query from the same peer: status %d, body %x; want REFUSED", r.status, r.body)
	}
	if !srv.limiter.Allow(netip.MustParseAddr("192.0.2.9")) {
		t.Error("the forwarded address was charged for the query")
	}
	_ = client.Close()
	<-done
}

// TestDoHFramerCoalescesWrites: a burst that arrives in one segment is
// answered in arrival order with a write per batch, not per request.
func TestDoHFramerCoalescesWrites(t *testing.T) {
	for _, tc := range []struct{ depth, maxWrites int }{{16, 2}, {200, 16}} {
		srv, _ := testServerNoStart(t, "RR")
		client, server := handAccept(t)
		if _, err := client.Write(dohBurst(t, tc.depth)); err != nil {
			t.Fatal(err)
		}
		done := serveByHand(srv, server, dohFramer)
		_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
		br := bufio.NewReader(client)
		for id := 1; id <= tc.depth; id++ {
			wantAnswer(t, readDoHReply(t, br), uint16(id))
		}
		if got := int(server.writes.Load()); got > tc.maxWrites {
			t.Errorf("%d requests answered in %d writes, want ≤ %d", tc.depth, got, tc.maxWrites)
		}
		_ = client.Close()
		<-done
	}
}

// TestDoHFramerSplitAtEveryOffset cuts a POST in two at every byte — in
// the request line, in a header name, between CR and LF, in the body —
// and sends the second part only once the loop has taken the first and
// blocked again. Each request is answered exactly once, in order, down
// one kept-alive connection.
func TestDoHFramerSplitAtEveryOffset(t *testing.T) {
	srv, _ := testServerNoStart(t, "RR")
	client, server := handAccept(t)
	done := serveByHand(srv, server, dohFramer)
	_ = client.SetDeadline(time.Now().Add(20 * time.Second))
	br := bufio.NewReader(client)
	size := len(dohPost(pipelineQueryWire(t, 1)))
	for cut := 1; cut < size; cut++ {
		req := dohPost(pipelineQueryWire(t, uint16(cut)))
		if _, err := client.Write(req[:cut]); err != nil {
			t.Fatal(err)
		}
		// The loop blocks in its read 2·cut−1 for this request and, having
		// taken the first part, in its read 2·cut for the rest.
		waitCond(t, 2*time.Second, func() bool { return server.reads.Load() >= int32(2*cut) }, "the loop never came back for the rest of the request")
		if got := server.writes.Load(); int(got) != cut-1 {
			t.Fatalf("cut %d: %d writes before the request was whole", cut, got)
		}
		if _, err := client.Write(req[cut:]); err != nil {
			t.Fatal(err)
		}
		wantAnswer(t, readDoHReply(t, br), uint16(cut))
	}
	_ = client.(*net.TCPConn).CloseWrite()
	if rest, err := io.ReadAll(br); err != nil || len(rest) != 0 {
		t.Errorf("after %d requests: %q, %v; want nothing more", size-1, rest, err)
	}
	<-done
	if got := srv.dohOK.Load(); got != uint64(size-1) {
		t.Errorf("%d requests answered, want %d", got, size-1)
	}
}

// TestDoHFramerLoneRequests: a client that keeps one request in flight
// gets each answer at once, in one read and one write, with nothing
// behind it to trigger a flush.
func TestDoHFramerLoneRequests(t *testing.T) {
	srv, _ := testServerNoStart(t, "RR")
	client, server := handAccept(t)
	done := serveByHand(srv, server, dohFramer)
	br := bufio.NewReader(client)
	for id := uint16(1); id <= 3; id++ {
		req := dohPost(pipelineQueryWire(t, id))
		if id == 3 {
			req = dohGet(dohResolve)
		}
		if _, err := client.Write(req); err != nil {
			t.Fatal(err)
		}
		_ = client.SetReadDeadline(time.Now().Add(time.Second))
		if r := readDoHReply(t, br); id < 3 {
			wantAnswer(t, r, id)
		} else if r.status != 200 || r.header.Get("Content-Type") != "application/json" {
			t.Fatalf("lone /resolve: status %d, content type %q", r.status, r.header.Get("Content-Type"))
		}
		if w := server.writes.Load(); w != int32(id) {
			t.Errorf("%d writes for %d lone requests", w, id)
		}
	}
	// One read that blocks before each request, and the one blocked now.
	waitCond(t, time.Second, func() bool { return server.reads.Load() == 4 }, "3 lone requests did not take 4 reads")
	_ = client.Close()
	<-done
}

// TestDoHFramerErrorMidStream follows three pipelined requests with one
// outside the subset and one more request behind it: the three answers
// batched ahead of the error are flushed, the error is answered once
// with Connection: close, and the connection ends with the last request
// unanswered.
func TestDoHFramerErrorMidStream(t *testing.T) {
	srv, _ := testServerNoStart(t, "RR")
	client, server := handAccept(t)
	const depth = 3
	burst := dohBurst(t, depth)
	burst = append(burst, "POST /dns-query HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 34\r\n\r\n"...)
	burst = append(burst, dohPost(pipelineQueryWire(t, 9))...)
	if _, err := client.Write(burst); err != nil {
		t.Fatal(err)
	}
	done := serveByHand(srv, server, dohFramer)
	_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(client)
	for id := 1; id <= depth; id++ {
		wantAnswer(t, readDoHReply(t, br), uint16(id))
	}
	if r := readDoHReply(t, br); r.status != http.StatusNotImplemented || !r.closing {
		t.Fatalf("status %d, close announced = %v; want 501 with Connection: close", r.status, r.closing)
	}
	_ = client.(*net.TCPConn).CloseWrite()
	if rest, err := io.ReadAll(br); err != nil || len(rest) != 0 {
		t.Errorf("after the error response: %q, %v; want EOF", rest, err)
	}
	<-done
	if got := srv.dohOK.Load(); got != depth {
		t.Errorf("%d requests answered, want %d", got, depth)
	}
}

// TestDoHFramerRefusalSurvivesUnreadBody: a client still sending the
// body the framer refused gets the 400, not a reset: the loop reads on
// for a moment before it closes.
func TestDoHFramerRefusalSurvivesUnreadBody(t *testing.T) {
	srv, _ := testServerNoStart(t, "RR")
	client, server := handAccept(t)
	done := serveByHand(srv, server, dohFramer)
	if _, err := client.Write([]byte("POST /dns-query HTTP/1.1\r\nContent-Type: application/dns-message\r\nContent-Length: 40000\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	_ = client.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(client)
	waitCond(t, 2*time.Second, func() bool { return server.writes.Load() == 1 }, "no response before the body")
	if _, err := client.Write(make([]byte, 40000)); err != nil {
		t.Fatalf("sending the refused body: %v", err)
	}
	if r := readDoHReply(t, br); r.status != 400 || !r.closing {
		t.Fatalf("status %d, close announced = %v; want 400 with Connection: close", r.status, r.closing)
	}
	_ = client.Close()
	<-done
}

// TestDoHFramerShutdownAnswersBuffered: Shutdown lands after a burst was
// read from the socket and before any of it was handled. Every request
// of the burst is answered, nothing more is read, and the connection
// closes.
func TestDoHFramerShutdownAnswersBuffered(t *testing.T) {
	srv, _ := testServerNoStart(t, "RR")
	client, server := handAccept(t)
	const depth = 8
	burst := dohBurst(t, depth)
	server.onRead = func(c *handConn, p []byte) (int, error) {
		if c.reads.Load() > 1 {
			t.Error("the loop read from the socket after Shutdown")
			return c.Conn.Read(p)
		}
		n, err := io.ReadAtLeast(c.Conn, p, len(burst))
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		return n, err
	}
	if _, err := client.Write(burst); err != nil {
		t.Fatal(err)
	}
	done := serveByHand(srv, server, dohFramer)
	_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(client)
	for id := 1; id <= depth; id++ {
		wantAnswer(t, readDoHReply(t, br), uint16(id))
	}
	if rest, err := io.ReadAll(br); err != nil || len(rest) != 0 {
		t.Fatalf("after the drained burst: %q, %v; want EOF", rest, err)
	}
	<-done
}

// TestShutdownEndsIdleDoHConn: a kept-alive DoH connection waiting
// between requests has nothing in flight for a graceful shutdown to wait
// for (TestShutdownEndsIdleTCPConn, for the other stream listener).
func TestShutdownEndsIdleDoHConn(t *testing.T) {
	srv, _ := dohServer(t)
	conn, err := net.Dial("tcp", srv.httpLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One exchange, so that the connection is known accepted and back in
	// its read.
	if _, err := conn.Write(dohPost(pipelineQueryWire(t, 1))); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	br := bufio.NewReader(conn)
	wantAnswer(t, readDoHReply(t, br), 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown with an idle DoH connection: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("Shutdown waited %v for an idle DoH connection", took)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Errorf("read after Shutdown = %v, want EOF", err)
	}
}

// TestDoHFramerRequestTimeout: a client that sends a request line and
// stalls is cut when the request timeout runs out, not the idle one —
// and an idle connection outlives the request timeout. The framer under
// test is dohFramer with the five seconds shortened.
func TestDoHFramerRequestTimeout(t *testing.T) {
	quick := *dohFramer
	quick.requestTimeout = 150 * time.Millisecond
	srv, _ := testServerNoStart(t, "RR")
	client, server := handAccept(t)
	done := serveByHand(srv, server, &quick)
	br := bufio.NewReader(client)
	_ = client.SetDeadline(time.Now().Add(5 * time.Second))

	time.Sleep(2 * quick.requestTimeout) // idle, and kept
	if _, err := client.Write(dohPost(pipelineQueryWire(t, 1))); err != nil {
		t.Fatal(err)
	}
	wantAnswer(t, readDoHReply(t, br), 1)

	start := time.Now()
	if _, err := client.Write([]byte("POST /dns-query HTTP/1.1\r\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("read on the stalled request = %v, want EOF (connection cut)", err)
	}
	if took := time.Since(start); took < quick.requestTimeout || took > 2*time.Second {
		t.Errorf("stalled request cut after %v, want about %v", took, quick.requestTimeout)
	}
	<-done
}

// TestDoHConnCap: the DoH listener has a semaphore of its own, of the
// configured size. With the cap filled by two kept-alive connections the
// accept loop pauses — a third client's request sits unanswered until a
// slot frees, then is served — and DNS-over-TCP, whose cap is its own,
// is served all the while.
func TestDoHConnCap(t *testing.T) {
	srv, _ := testServerCfg(t, "RR", func(cfg *Config) {
		cfg.HTTPAddr = "127.0.0.1:0"
		cfg.MaxTCPConns = 2
	})
	exchange := func(conn net.Conn, id uint16, patience time.Duration) error {
		if _, err := conn.Write(dohPost(pipelineQueryWire(t, id))); err != nil {
			return err
		}
		_ = conn.SetReadDeadline(time.Now().Add(patience))
		r, err := parseDoHReply(bufio.NewReader(conn))
		if err == nil && r.status != 200 {
			err = fmt.Errorf("status %d", r.status)
		}
		return err
	}
	var held [2]net.Conn
	for i := range held {
		conn, err := net.Dial("tcp", srv.httpLn.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		held[i] = conn
		// An exchange, so that the connection is known to hold a slot.
		if err := exchange(conn, uint16(i+1), 3*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// The third connection completes its handshake in the kernel's
	// backlog but is not accepted; its request goes unanswered.
	third, err := net.Dial("tcp", srv.httpLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	if err := exchange(third, 3, 300*time.Millisecond); err == nil {
		t.Fatal("request served while the DoH connection cap was full")
	}

	// DNS-over-TCP is unaffected while DoH sits at its cap.
	tconn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tconn.Close()
	if _, err := tconn.Write(frameTCP(pipelineQueryWire(t, 4))); err != nil {
		t.Fatal(err)
	}
	_ = tconn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := readTCPResponse(tconn); err != nil {
		t.Fatalf("DNS-over-TCP while DoH is at its cap: %v", err)
	}
	if got := srv.tcpConns.Load(); got != 1 {
		t.Errorf("TCPConns = %d, want 1: DoH connections are not TCP's", got)
	}

	// Freeing one slot lets the queued connection through; its request
	// has been waiting in the socket.
	held[0].Close()
	_ = third.SetReadDeadline(time.Now().Add(3 * time.Second))
	r, err := parseDoHReply(bufio.NewReader(third))
	if err != nil {
		t.Fatalf("queued connection never served after a slot freed: %v", err)
	}
	wantAnswer(t, r, 3)
}

// dohDirect feeds whole requests straight to the DoH framer, no socket
// and no loop: what the framer writes lands in out.
type dohDirect struct {
	srv *Server
	b   *streamBufs
	out bytes.Buffer
}

func newDoHDirect(srv *Server) *dohDirect {
	d := &dohDirect{srv: srv, b: dohFramer.pool.New().(*streamBufs)}
	d.b.from = netip.MustParseAddr("127.0.0.1")
	d.b.bw.Reset(&d.out)
	d.out.Grow(4096)
	return d
}

// raw has the framer answer req, which it must take whole and keep the
// connection after, and returns the response bytes.
func (d *dohDirect) raw(t testing.TB, req []byte) []byte {
	t.Helper()
	d.out.Reset()
	if n := dohFramer.exchange(d.srv, d.b, req); n != len(req) {
		t.Fatalf("the framer took %d of the request's %d bytes", n, len(req))
	}
	if err := d.b.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return d.out.Bytes()
}

func (d *dohDirect) exchange(t testing.TB, req []byte) dohReply {
	t.Helper()
	return readDoHReply(t, bufio.NewReader(bytes.NewReader(d.raw(t, req))))
}

// TestDoHWirePathZeroAlloc extends TestHandleHotPathZeroAlloc through
// the framer, to every request the endpoints answer: parsing the head and
// the parameters, building the /resolve query, answering it and writing
// the response head and body allocates nothing — for the workload's POST
// and GET, and for the other question shapes and spellings.
func TestDoHWirePathZeroAlloc(t *testing.T) {
	ecs := zoneQuery(t, netip.MustParsePrefix("10.4.7.0/24"))
	padded := base64.URLEncoding.EncodeToString(ecs)
	if !strings.HasSuffix(padded, "=") {
		t.Fatalf("%q has no padding; the test exercises nothing", padded)
	}
	cases := []struct {
		name  string
		req   []byte
		ctype string
	}{
		{"plain", dohPost(zoneQuery(t, netip.Prefix{})), "application/dns-message"},
		{"ecs", dohPost(ecs), "application/dns-message"},
		{"GET dns unpadded", dohGet("/dns-query?dns=" + strings.TrimRight(padded, "=")), "application/dns-message"},
		{"GET dns padded", dohGet("/dns-query?dns=" + padded), "application/dns-message"},
		{"resolve A", dohGet("/resolve?name=www.site.example"), "application/json"},
		{"resolve", dohGet(dohResolve), "application/json"},
		{"resolve ecs v6", dohGet("/resolve?name=www.site.example&type=A&edns_client_subnet=2001:db8:4:5600::/56"), "application/json"},
		{"resolve TXT", dohGet("/resolve?name=www.site.example&type=TXT"), "application/json"},
		{"resolve NXDOMAIN", dohGet("/resolve?name=ftp.site.example&type=A"), "application/json"},
		// The largest body: it must fit the response buffer like the rest.
		{"resolve longest", dohGet("/resolve?name=" + strings.Repeat(strings.Repeat("<", 63)+".", 3) + strings.Repeat("<", 61)), "application/json"},
		{"resolve escaped", dohGet("/resolve?name=WWW%2Esite%2eexample%2E&type=%61&edns%5Fclient_subnet=10.4.7.0%2F24"), "application/json"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srv, _ := testServerNoStart(t, "DRR2-TTL/S_K")
			d := newDoHDirect(srv)
			ask := func() {
				resp := d.raw(t, c.req)
				if !bytes.HasPrefix(resp, []byte("HTTP/1.1 200 OK\r\n")) {
					t.Fatalf("response %q", resp)
				}
			}
			for i := 0; i < 64; i++ {
				ask()
			}
			if r := d.exchange(t, c.req); r.status != http.StatusOK || r.header.Get("Content-Type") != c.ctype {
				t.Fatalf("status %d, content type %q", r.status, r.header.Get("Content-Type"))
			}
			if allocs := testing.AllocsPerRun(500, ask); allocs != 0 {
				t.Errorf("%s allocates %.1f times per request, want 0", c.req[:bytes.IndexByte(c.req, '\r')], allocs)
			}
		})
	}
}

// handPair is handAccept over an AF_UNIX socket pair: a stream with
// deadlines and CloseWrite, as TCP's, that leaves no TIME_WAIT entry
// behind, for a fuzz body that makes a connection per input.
func handPair(t testing.TB) (client net.Conn, server *handConn) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	var conns [2]net.Conn
	for i, fd := range fds {
		f := os.NewFile(uintptr(fd), "socketpair")
		conns[i], err = net.FileConn(f) // a dup of fd
		_ = f.Close()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conns[i].Close() })
	}
	return conns[0], &handConn{Conn: conns[1]}
}

// FuzzHTTPFramer holds the framer to net/http, differentially. Arbitrary
// bytes go down a hand-made connection to the stream loop. It must not
// panic; every byte it writes back must parse with http.ReadResponse as
// a sequence of responses, each with a correct Content-Length; and the
// framer is a subset of net/http, never a superset: every request the
// framer takes, http.ReadRequest takes too from the same bytes, and
// agrees on method, path, query and body.
func FuzzHTTPFramer(f *testing.F) {
	srv, _ := testServerNoStart(f, "RR")
	wire := zoneQuery(f, netip.MustParsePrefix("10.4.7.0/24"))
	post, get := string(dohPost(wire)), string(dohGet(dohResolve))
	for _, seed := range []string{
		post, get, // the doh workload's two request shapes
		post + get, get + post + post, // pipelined
		post[:40], post[:len(post)-5], get[:len(get)-2], // split: the rest never comes
		"POST /dns-query HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\nhello",
		"POST /dns-query HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello" + get,
		"POST /dns-query HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!",
		"POST /dns-query HTTP/1.1\r\nContent-Length: 05\r\nContent-Length: 5\r\n\r\nhello",
		"GET /resolve?name=www.site.example HTTP/1.1\nHost: x\n\n" + get, // bare LF
		"GET /resolve?name=www.site.example HTTP/1.1\r\nX-Folded: a\r\n\tb\r\n\r\n" + get,
		"GET /resolve?name=x HTTP/1.1\r\nCookie: " + strings.Repeat("c", 9<<10) + "\r\n\r\n" + get,
		"GET /resolve?name=www.site.example HTTP/1.0\r\n\r\n" + get,
		strings.ToLower(post[:len(post)-len(wire)]) + string(wire) + get, // lower-case header names (and method)
		"post /dns-query HTTP/1.1\r\ncontent-type: application/dns-message\r\ncontent-length: 0\r\n\r\n" + get,
		"GET /dns%2Dquery HTTP/1.1\r\n\r\n", "GET /%zz HTTP/1.1\r\n\r\n" + get, "GET http://h/resolve HTTP/1.1\r\n\r\n",
		"HEAD /resolve?name=x HTTP/1.1\r\n\r\n" + get, "OPTIONS * HTTP/1.1\r\n\r\n", "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n",
		"GET /a?b HTTP/1.1\r\nConnection: close\r\n\r\n" + get, "GET /resolve HTTP/1.1\r\nExpect: 100-continue\r\n\r\n",
		"GET /x HTTP/1.1\r\n: v\r\n\r\n", "GET /x HTTP/1.1\r\nA B: v\r\n\r\n", "GET  /x HTTP/1.1\r\n\r\n", "\r\n" + get,
		"POST /dns-query HTTP/1.1\r\nContent-Length: 4097\r\n\r\n", "POST /dns-query HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 32<<10 {
			t.Skip() // what the framer reads on for after a refusal, and no more
		}
		client, server := handPair(t)
		done := serveByHand(srv, server, dohFramer)
		go func() {
			_, _ = client.Write(data)
			_ = client.(*net.UnixConn).CloseWrite()
		}()
		_ = client.SetReadDeadline(time.Now().Add(10 * time.Second))
		out, readErr := io.ReadAll(client)
		<-done
		// A connection closed with input unread (a request behind the one
		// that asked for close, a refusal's tail beyond the linger) may be
		// reset, and the reset may take the tail of the output with it.
		reset := errors.Is(readErr, syscall.ECONNRESET)
		if readErr != nil && !reset {
			t.Fatalf("reading the responses: %v", readErr)
		}
		var replies []dohReply
		for br := bufio.NewReader(bytes.NewReader(out)); ; {
			if _, err := br.Peek(1); err == io.EOF {
				break
			}
			r, err := parseDoHReply(br)
			if err != nil && reset {
				break
			}
			if err != nil {
				t.Fatalf("response %d of %q does not parse: %v", len(replies)+1, out, err)
			}
			replies = append(replies, r)
		}

		// The reference: walk the same bytes with the framer's parser and
		// net/http's side by side.
		ref := bufio.NewReader(bytes.NewReader(data))
		want, closing := 0, false
		for rest := data; len(rest) > 0 && !closing; {
			r, status, _ := parseHTTPHead(rest)
			if status != "" || r.body > maxDoHRequest {
				want, closing = want+1, true // refused: one response, and the end
				break
			}
			if r.head == 0 || len(rest) < r.head+r.body {
				break // incomplete: no response
			}
			req, err := http.ReadRequest(ref)
			if err != nil {
				t.Fatalf("the framer takes %q, net/http does not: %v", rest[:r.head], err)
			}
			body, err := io.ReadAll(req.Body)
			if err != nil {
				t.Fatalf("net/http on the body of %q: %v", rest[:r.head], err)
			}
			if req.Method != string(r.method) || req.URL.Path != string(r.path) || req.URL.RawQuery != string(r.query) ||
				!bytes.Equal(body, rest[r.head:r.head+r.body]) {
				t.Fatalf("%q: the framer reads %s %s ? %s with %d bytes of body, net/http %s %s ? %s with %d",
					rest[:r.head], r.method, r.path, r.query, r.body, req.Method, req.URL.Path, req.URL.RawQuery, len(body))
			}
			if !r.close && req.Close {
				t.Fatalf("%q: net/http closes behind it, the framer keeps the connection", rest[:r.head])
			}
			want, closing = want+1, r.close || req.Method == "HEAD"
			rest = rest[r.head+r.body:]
		}
		if len(replies) > want || (!reset && len(replies) != want) {
			t.Fatalf("%d responses to %q, want %d", len(replies), data, want)
		}
		for i, r := range replies {
			if last := i == want-1; r.closing != (last && closing) {
				t.Fatalf("response %d of %d announces close = %v", i+1, want, r.closing)
			}
		}
	})
}

// BenchmarkServerDoH measures request round-trips over four kept-alive
// loopback connections, one request in flight on each of them at a time,
// in the doh workload's mix: four POST /dns-query with a client subnet to
// one GET /resolve. The client writes prepared requests and reads responses into
// a reused buffer, so the allocations reported are the server's.
func BenchmarkServerDoH(b *testing.B) {
	srv := benchServer(b, "DRR2-TTL/S_K", "127.0.0.1:0", func(cfg *Config) { cfg.HTTPAddr = "127.0.0.1:0" })
	requests := [5][]byte{4: dohGet(dohResolve)}
	for i := range requests[:4] {
		requests[i] = dohPost(zoneQuery(b, netip.MustParsePrefix("10.4.7.0/24")))
	}
	const conns = 4
	var clients [conns]*bufio.Reader
	var socks [conns]net.Conn
	for i := range socks {
		conn, err := net.Dial("tcp", srv.httpLn.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		socks[i], clients[i] = conn, bufio.NewReaderSize(conn, 4096)
	}
	// read takes one response the way benchmark/loadgen does: the status,
	// the Content-Length header spelled exactly so, the body.
	read := func(br *bufio.Reader) {
		length := -1
		for {
			line, err := br.ReadSlice('\n')
			if err != nil {
				b.Fatal(err)
			}
			if length < 0 && !bytes.HasPrefix(line, []byte("HTTP/1.1 200 ")) {
				b.Fatalf("status line %q", line)
			}
			length = max(length, 0)
			if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
				for _, c := range bytes.TrimSpace(v) {
					length = length*10 + int(c-'0')
				}
			}
			if len(line) == 2 {
				break
			}
		}
		if _, err := br.Discard(length); err != nil || length == 0 {
			b.Fatalf("body of %d bytes: %v", length, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += conns {
		k := min(conns, b.N-n)
		for i := 0; i < k; i++ {
			if _, err := socks[i].Write(requests[(n+i)%len(requests)]); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < k; i++ {
			read(clients[i])
		}
	}
	if got := srv.statsTotal(cTransport + statsCounter(engine.TransportDoH)); got != uint64(b.N) {
		b.Fatalf("%d DoH queries counted for %d requests", got, b.N)
	}
}
