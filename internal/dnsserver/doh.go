package dnsserver

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"math"
	"net/netip"
	"net/url"
	"strconv"
	"strings"
	"time"

	"dnslb/internal/dnswire"
	"dnslb/internal/engine"
)

// DNS-over-HTTPS front end (enabled by Config.HTTPAddr).
//
// Two endpoints share the engine, the rate limiter, the
// overload-degradation ladder, and the per-transport metrics with
// the UDP and TCP fronts, because every request funnels into the same
// decode and answer steps (query.go) the socket serve loops run:
//
//   - /dns-query — RFC 8484 wire format: GET with a ?dns= base64url
//     parameter, or POST with an application/dns-message body. The
//     response body is the verbatim wire response, so a stub resolver
//     speaking DoH gets bit-identical answers to one speaking UDP.
//   - /resolve — a dns-json style debugging endpoint: ?name=…&type=…
//     [&edns_client_subnet=…] rendered as JSON from the same reply
//     value the wire responses are encoded from. The subnet parameter
//     builds a real ECS option into the synthesized query, so the
//     JSON endpoint exercises the identical classification path.
//
// The front end is HTTP/1.1 in the clear: TLS and HTTP/2 terminate ahead
// of the process. It runs on the stream loop DNS-over-TCP runs on
// (serveStream), behind a framer that serves a strict subset of HTTP/1.1
// and closes the connection on everything outside it, so it never has to
// resynchronise on bytes it did not understand; and every request it
// takes net/http takes too, with the same method, path and body
// (FuzzHTTPFramer holds it to that). Served: "METHOD /target HTTP/1.1"
// (kept alive unless the request says Connection: close) and HTTP/1.0
// (answered, then closed), lines ending in CRLF, a Content-Length the
// only way to say a body follows. A request outside that is a framing
// error — parseHTTPHead names each — answered once, the connection then
// closed; a request that was framed and asks for what the endpoints do
// not do (404, 405, 415, their own 400s and 500) keeps the connection.

const (
	// maxDoHRequest bounds an accepted DoH request body; same budget as a
	// TCP query, and for the same reason.
	maxDoHRequest = maxTCPQuery
	// maxDoHHead bounds request line and headers together; the longest
	// legitimate one is a GET whose ?dns= holds maxDoHRequest in base64.
	maxDoHHead = 8192
	// dohRequestTimeout bounds a request's arrival from its first bytes on.
	dohRequestTimeout = 5 * time.Second
)

// httpRequest is what the framer keeps of a request's head: slices of
// the read buffer, valid until the request is discarded from it.
type httpRequest struct {
	method, path, query []byte
	ctype               []byte // the first Content-Type's value, or nil
	// head is the length of request line and headers, 0 while they are
	// incomplete; body is the Content-Length, 0 without one.
	head, body int
	hasLength  bool
	close      bool // the connection ends after this request's response
}

// parseHTTPHead parses the request head at the front of buf, as far as it
// has arrived. A non-empty status is the framing error to answer the
// client with before closing. Of the headers, Content-Length,
// Content-Type, Connection, Transfer-Encoding and Expect are interpreted,
// their names matched case-insensitively; every other one is checked for
// form and skipped without being stored.
func parseHTTPHead(buf []byte) (r httpRequest, status, msg string) {
	const malformed = "400 Bad Request"
	for pos := 0; ; {
		i := bytes.IndexByte(buf[pos:], '\n')
		if i < 0 && len(buf) < maxDoHHead {
			return r, "", ""
		}
		if i < 0 || pos+i+1 > maxDoHHead {
			return r, "431 Request Header Fields Too Large", "request head too large"
		}
		if i == 0 || buf[pos+i-1] != '\r' {
			return r, malformed, "line does not end in CRLF"
		}
		line := buf[pos : pos+i-1]
		if bytes.ContainsFunc(line, func(c rune) bool { return c < ' ' && c != '\t' || c == 0x7f }) {
			return r, malformed, "control character"
		}
		first := pos == 0
		pos += i + 1
		if first {
			sp1, sp2 := bytes.IndexByte(line, ' '), bytes.LastIndexByte(line, ' ')
			if sp1 <= 0 || sp2 == sp1 || !isToken(line[:sp1]) {
				return r, malformed, "malformed request line"
			}
			r.method = line[:sp1]
			target, proto := line[sp1+1:sp2], line[sp2+1:]
			r.path, r.query, _ = bytes.Cut(target, []byte{'?'})
			// A path with a percent-escape is refused rather than decoded:
			// neither endpoint needs one, and so the path routed on is the
			// path every other parser of the request sees.
			if len(r.path) == 0 || r.path[0] != '/' || bytes.IndexByte(r.path, '%') >= 0 || bytes.ContainsAny(target, " \t") {
				return r, malformed, "malformed request target"
			}
			switch {
			case string(proto) == "HTTP/1.1":
			case string(proto) == "HTTP/1.0":
				r.close = true
			case bytes.HasPrefix(proto, []byte("HTTP/")):
				return r, "505 HTTP Version Not Supported", "HTTP/1.0 and HTTP/1.1 only"
			default:
				return r, malformed, "malformed request line"
			}
			continue
		}
		if len(line) == 0 {
			r.head = pos
			return r, "", ""
		}
		// A folded line (obsolete, RFC 9112 §5.2) begins with a space: no
		// token, refused here with every other malformed header.
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 || !isToken(line[:colon]) {
			return r, malformed, "malformed header line"
		}
		// EqualFold on a token, which is ASCII, folds the case of letters
		// and no more. (A Connection option need be no token; the worst a
		// loose match there does is close a connection.)
		key, val := line[:colon], bytes.Trim(line[colon+1:], " \t")
		switch {
		case bytes.EqualFold(key, []byte("content-length")):
			// Refused when repeated, even in agreement: one length or none.
			if r.hasLength || len(val) == 0 {
				return r, malformed, "bad Content-Length"
			}
			r.hasLength = true
			for _, c := range val {
				if c < '0' || c > '9' {
					return r, malformed, "bad Content-Length"
				}
				// Past the bound the value only has to stay past it.
				r.body = min(r.body*10+int(c-'0'), maxDoHRequest+1)
			}
		case bytes.EqualFold(key, []byte("content-type")):
			if r.ctype == nil {
				r.ctype = val
			}
		case bytes.EqualFold(key, []byte("connection")):
			for len(val) > 0 && !r.close {
				var tok []byte
				tok, val, _ = bytes.Cut(val, []byte{','})
				r.close = bytes.EqualFold(bytes.Trim(tok, " \t"), []byte("close"))
			}
		case bytes.EqualFold(key, []byte("transfer-encoding")):
			// Whatever it says: no request then has two lengths for a proxy
			// ahead to have read the other of (no smuggling surface).
			return r, "501 Not Implemented", "Transfer-Encoding not supported"
		case bytes.EqualFold(key, []byte("expect")):
			return r, "417 Expectation Failed", "Expect not supported"
		}
	}
}

// isToken reports whether b is an HTTP token (RFC 9110 §5.6.2): what a
// method and a header name are made of.
func isToken(b []byte) bool {
	for _, c := range b {
		if !('a' <= c|0x20 && c|0x20 <= 'z' || '0' <= c && c <= '9' || strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0) {
			return false
		}
	}
	return len(b) > 0
}

// appendHTTPHead appends a response's status line and headers to the
// write buffer; the caller appends the n bytes of body. extra is any
// further header lines, each with its CRLF.
func (b *streamBufs) appendHTTPHead(status, ctype, extra string, n int, closing bool) {
	if now := time.Now(); now.Unix() != b.dateSec {
		b.dateSec = now.Unix()
		b.date = now.UTC().AppendFormat(b.date[:0], "Mon, 02 Jan 2006 15:04:05 GMT")
	}
	h := append(append(b.bw.AvailableBuffer(), "HTTP/1.1 "...), status...)
	h = append(append(h, "\r\nDate: "...), b.date...)
	h = append(append(h, "\r\nContent-Type: "...), ctype...)
	h = strconv.AppendInt(append(h, "\r\nContent-Length: "...), int64(n), 10)
	h = append(append(h, "\r\n"...), extra...)
	if closing {
		h = append(h, "Connection: close\r\n"...)
	}
	_, _ = b.bw.Write(append(h, "\r\n"...))
}

// httpError appends a plain-text error response.
func (b *streamBufs) httpError(status, extra, msg string, closing bool) {
	b.appendHTTPHead(status, "text/plain; charset=utf-8", extra+"X-Content-Type-Options: nosniff\r\n", len(msg)+1, closing)
	_, _ = b.bw.WriteString(msg)
	_ = b.bw.WriteByte('\n')
}

// badRequest refuses a DoH request the front end could not make a DNS
// query of, and counts it.
func (s *Server) badRequest(b *streamBufs, r *httpRequest, status, extra, msg string) {
	s.dohBadRequest.Add(1)
	b.httpError(status, extra, msg, r.close)
}

// exchangeDoH is the HTTP/1.1 framer (see the head of this file for the
// subset it serves): it answers the request at the head of buf once all
// of it, head and body, lies there.
func (s *Server) exchangeDoH(b *streamBufs, buf []byte) int {
	r, status, msg := parseHTTPHead(buf)
	if status == "" && r.body > maxDoHRequest {
		s.dohBadRequest.Add(1)
		status, msg = "400 Bad Request", "bad dns message"
	}
	if status != "" {
		b.httpError(status, "", msg, true)
		// The client may still be sending the request just refused, and a
		// close with its bytes unread resets the connection, which can take
		// the error response with it: the response goes out now, and what
		// arrives in the next half second is read and dropped first.
		if b.bw.Flush() == nil && b.conn.SetReadDeadline(time.Now().Add(time.Second/2)) == nil {
			_, _ = io.CopyN(io.Discard, b.br, 1<<16)
		}
		return 0
	}
	n := r.head + r.body
	if r.head == 0 {
		return len(buf) + 1
	} else if len(buf) < n {
		return n
	}
	// A response to HEAD has no body, which is what no response written
	// here can do; the connection closes behind it instead, and the client
	// drops the body with it.
	r.close = r.close || string(r.method) == "HEAD"
	switch string(r.path) {
	case "/dns-query":
		s.serveDoHWire(b, &r, buf[r.head:n])
	case "/resolve":
		s.serveDoHJSON(b, &r)
	default:
		b.httpError("404 Not Found", "", "404 page not found", r.close)
	}
	if r.close {
		return 0
	}
	return n
}

// serveDoHWire serves RFC 8484 wire-format exchanges.
func (s *Server) serveDoHWire(b *streamBufs, r *httpRequest, wire []byte) {
	switch string(r.method) {
	case "GET":
		// RFC 8484 requires unpadded base64url; accept padded as a
		// courtesy (curl users add it). A missing parameter decodes to
		// the empty message, refused below.
		params, _ := url.ParseQuery(string(r.query))
		var err error
		wire, err = base64.RawURLEncoding.DecodeString(strings.TrimRight(params.Get("dns"), "="))
		if err != nil {
			wire = nil
		}
	case "POST":
		if string(r.ctype) != "application/dns-message" {
			s.badRequest(b, r, "415 Unsupported Media Type", "", "content type must be application/dns-message")
			return
		}
	default:
		s.badRequest(b, r, "405 Method Not Allowed", "Allow: GET, POST\r\n", "method not allowed")
		return
	}
	if len(wire) == 0 || len(wire) > maxDoHRequest {
		s.badRequest(b, r, "400 Bad Request", "", "bad dns message")
		return
	}
	// HTTP has no 512-byte constraint: DoH gets the TCP budget, and no
	// response is truncated.
	resp := s.handle(wire, b.from, engine.TransportDoH, math.MaxUint16, b.resp[:0])
	if resp == nil {
		s.dohDropped.Add(1)
		b.httpError("500 Internal Server Error", "", "query dropped", r.close)
		return
	}
	s.dohOK.Add(1)
	b.appendHTTPHead("200 OK", "application/dns-message", "", len(resp), r.close)
	_, _ = b.bw.Write(resp)
}

// dohJSONAnswer is one answer record in the /resolve rendering,
// following the de-facto dns-json field names.
type dohJSONAnswer struct {
	Name string `json:"name"`
	Type uint16 `json:"type"`
	TTL  uint32 `json:"TTL"`
	Data string `json:"data"`
}

// dohJSONResponse is the /resolve response body.
type dohJSONResponse struct {
	Status   uint16          `json:"Status"`
	TC       bool            `json:"TC"`
	Question []dohJSONQ      `json:"Question"`
	Answer   []dohJSONAnswer `json:"Answer,omitempty"`
	Subnet   string          `json:"edns_client_subnet,omitempty"`
}

type dohJSONQ struct {
	Name string `json:"name"`
	Type uint16 `json:"type"`
}

// parseDoHType maps a ?type= parameter (mnemonic or numeric) to a
// record type; empty means A.
func parseDoHType(s string) (dnswire.Type, bool) {
	switch strings.ToUpper(s) {
	case "", "A":
		return dnswire.TypeA, true
	case "AAAA":
		return dnswire.TypeAAAA, true
	case "TXT":
		return dnswire.TypeTXT, true
	case "ANY", "*":
		return dnswire.TypeANY, true
	}
	if n, err := strconv.ParseUint(s, 10, 16); err == nil {
		return dnswire.Type(n), true
	}
	return 0, false
}

// parseDoHSubnet parses an ?edns_client_subnet= parameter: an address
// with an optional /bits suffix (defaulting to a full-length prefix,
// as dns-json does).
func parseDoHSubnet(s string) (netip.Prefix, bool) {
	if strings.Contains(s, "/") {
		p, err := netip.ParsePrefix(s)
		if err != nil {
			return netip.Prefix{}, false
		}
		return p.Masked(), true
	}
	a, err := netip.ParseAddr(s)
	if err != nil {
		return netip.Prefix{}, false
	}
	return netip.PrefixFrom(a, a.BitLen()), true
}

// serveDoHJSON serves the dns-json style /resolve endpoint. It acts as
// a DNS client towards its own server: the parameters become a wire
// query (with a real ECS option when edns_client_subnet is given), which
// goes through the decoder and answer step every transport uses — so
// names and subnets from outside are validated in one place, and
// counters, limiter and degraded mode apply — and the reply is rendered
// as JSON directly, with no wire response in between.
func (s *Server) serveDoHJSON(b *streamBufs, r *httpRequest) {
	if string(r.method) != "GET" {
		s.badRequest(b, r, "405 Method Not Allowed", "Allow: GET\r\n", "method not allowed")
		return
	}
	params, _ := url.ParseQuery(string(r.query))
	name := params.Get("name")
	if name == "" {
		s.badRequest(b, r, "400 Bad Request", "", "missing name parameter")
		return
	}
	if !strings.HasSuffix(name, ".") {
		name += "."
	}
	qtype, ok := parseDoHType(params.Get("type"))
	if !ok {
		s.badRequest(b, r, "400 Bad Request", "", "bad type parameter")
		return
	}
	q := &dnswire.Message{
		Header:    dnswire.Header{OpCode: dnswire.OpQuery},
		Questions: []dnswire.Question{{Name: strings.ToLower(name), Type: qtype, Class: dnswire.ClassIN}},
	}
	if sn := params.Get("edns_client_subnet"); sn != "" {
		p, ok := parseDoHSubnet(sn)
		if !ok || q.SetClientSubnet(dnswire.ClientSubnet{Prefix: p}, dnswire.MaxUDPPayload) != nil {
			s.badRequest(b, r, "400 Bad Request", "", "bad edns_client_subnet parameter")
			return
		}
	}
	wire, err := q.Pack()
	if err != nil {
		s.badRequest(b, r, "400 Bad Request", "", "bad query")
		return
	}
	out, ok := s.answerJSON(wire, b.from)
	if !ok {
		s.dohDropped.Add(1)
		b.httpError("500 Internal Server Error", "", "query dropped", r.close)
		return
	}
	s.dohOK.Add(1)
	// The connection's own buffer and encoder, not a pair made for each
	// request. Encode cannot fail on this value: strings and numbers.
	if b.enc == nil {
		b.enc = json.NewEncoder(&b.json)
	}
	b.json.Reset()
	_ = b.enc.Encode(out)
	b.appendHTTPHead("200 OK", "application/json", "", b.json.Len(), r.close)
	_, _ = b.bw.Write(b.json.Bytes())
}

// answerJSON is handle with the JSON renderer in appendReply's place:
// decode and answer behind the same panic recovery (ok is false when the
// query is dropped), then the /resolve body for the reply — field for
// field what decoding the wire response gives. The authority section has
// no place in the body: a negative answer is its status.
func (s *Server) answerJSON(wire []byte, from netip.Addr) (out dohJSONResponse, ok bool) {
	defer func() {
		if s.recovered(recover(), from, engine.TransportDoH) {
			ok = false
		}
	}()
	q := dnswire.GetQuery()
	defer dnswire.PutQuery(q)
	r, _ := s.answer(q, wire, from, engine.TransportDoH)
	out.Status = uint16(r.hdr.RCode)
	if r.shape >= shapeQuestion {
		out.Question = []dohJSONQ{{Name: string(q.Name), Type: uint16(q.Type)}}
	}
	switch r.shape {
	case shapeA:
		out.Answer = []dohJSONAnswer{{Name: s.zone, Type: uint16(dnswire.TypeA), TTL: r.ttl, Data: r.addr.String()}}
		if q.HasECS {
			out.Subnet = q.ECS.Prefix.String() + "/" + strconv.Itoa(int(r.scope))
		}
	case shapeTXT:
		out.Answer = []dohJSONAnswer{{Name: s.zone, Type: uint16(dnswire.TypeTXT),
			Data: "policy=" + s.policy.Name() + " decisions=" + strconv.FormatUint(s.policy.Decisions(), 10)}}
	}
	return out, r.shape != shapeDrop
}
