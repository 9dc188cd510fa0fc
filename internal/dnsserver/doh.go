package dnsserver

import (
	"bytes"
	"encoding/base64"
	"encoding/hex"
	"io"
	"math"
	"net/netip"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"dnslb/internal/dnswire"
	"dnslb/internal/engine"
)

// DNS-over-HTTPS front end (enabled by Config.HTTPAddr).
//
// Two endpoints share the engine, the rate limiter and the per-transport
// metrics with the UDP and TCP fronts, because every request funnels
// into the same decode and answer steps (query.go) the socket serve
// loops run:
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
// No request allocates; both endpoints parse, synthesise and render by
// append into the connection's buffers. (1) scanParams reads the query
// string: split on '&', cut on '=', a component copied to the scratch only
// to decode a percent-escape or '+', ?dns='s base64 decoded behind it. What
// url.ParseQuery refuses — a malformed escape, a ';' — is a 400 "bad query
// string", not an answer to a question the request did not ask.
// (2) appendResolveQuery writes the /resolve query, byte for byte the
// dnswire.Message.Pack of the parameters; it goes through answer and the
// one decoder like any transport's. (3) appendJSON writes the body from
// the reply and the decoded query, byte for byte encoding/json's for a
// struct of those fields. doh_oracle_test.go holds each to its oracle.
//
// The front end is HTTP/1.1 in the clear: TLS and HTTP/2 terminate ahead
// of the process. It runs on the stream loop DNS-over-TCP runs on
// (serveStream), behind exchangeHTTP, the framer the admin ports (admin.go)
// share with their own routes (httpPort). It serves a strict subset of
// HTTP/1.1 and closes the connection on everything outside it, so it never
// has to resynchronise on bytes it did not understand; and every request
// it takes net/http takes too, with the same method, path and body
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
	close      bool   // the connection ends after this request's response
	content    []byte // the body, once the framer has all of it
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
		for _, c := range line { // bytes, not runes: no byte of a multi-byte UTF-8 sequence is below 0x80
			if c < ' ' && c != '\t' || c == 0x7f {
				return r, malformed, "control character"
			}
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

// httpOK appends a 200 response with body.
func (b *streamBufs) httpOK(ctype string, body []byte, closing bool) {
	b.appendHTTPHead("200 OK", ctype, "", len(body), closing)
	_, _ = b.bw.Write(body)
}

// httpError appends a plain-text error response.
func (b *streamBufs) httpError(status, extra, msg string, closing bool) {
	b.appendHTTPHead(status, "text/plain; charset=utf-8", extra+"X-Content-Type-Options: nosniff\r\n", len(msg)+1, closing)
	_, _ = b.bw.WriteString(msg)
	_ = b.bw.WriteByte('\n')
}

// badRequest refuses a DoH request the front end could not make a DNS
// query of, and counts it.
func (s *Server) badRequest(b *streamBufs, r *httpRequest, status, msg string) {
	s.dohBadRequest.Add(1)
	b.httpError(status, "", msg, r.close)
}

// An httpPort is what the HTTP ports — DoH and the admin ports — differ
// in: route gives a path's handler (nil: 404) and the methods it takes
// as an Allow header lists them (others: 405); tooLarge and tooLargeMsg
// answer a body over maxDoHRequest; refused counts those and the 405s.
type httpPort struct {
	route                 func(path []byte) (h httpHandler, allow string)
	tooLarge, tooLargeMsg string
	refused               func(s *Server)
}

// An httpHandler answers a request framed whole, with a method it takes.
type httpHandler func(s *Server, b *streamBufs, r *httpRequest)

// httpFramer returns the framer of an HTTP port.
func httpFramer(p *httpPort) *framer {
	return &framer{func(s *Server, b *streamBufs, buf []byte) int {
		return s.exchangeHTTP(b, buf, p)
	}, tcpIdleTimeout, dohRequestTimeout, streamPool(maxDoHHead + maxDoHRequest)}
}

var dohFramer = httpFramer(&httpPort{
	route: func(path []byte) (httpHandler, string) {
		switch string(path) {
		case "/dns-query":
			return (*Server).serveDoHWire, "GET, POST"
		case "/resolve":
			return (*Server).serveDoHJSON, "GET"
		}
		return nil, ""
	},
	tooLarge: "400 Bad Request", tooLargeMsg: "bad dns message",
	refused: func(s *Server) { s.dohBadRequest.Add(1) },
})

// exchangeHTTP is the HTTP/1.1 framer (see the head of this file for the
// subset it serves): it answers the request at the head of buf, once all
// of it, head and body, lies there, by the port's routes.
func (s *Server) exchangeHTTP(b *streamBufs, buf []byte, p *httpPort) int {
	r := &b.req
	var status, msg string
	*r, status, msg = parseHTTPHead(buf)
	if status == "" && r.body > maxDoHRequest {
		p.refused(s)
		status, msg = p.tooLarge, p.tooLargeMsg
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
	r.content = buf[r.head:n]
	// A response to HEAD has no body, which is what no response written
	// here can do; the connection closes behind it instead, and the client
	// drops the body with it.
	r.close = r.close || string(r.method) == "HEAD"
	switch h, allow := p.route(r.path); {
	case h == nil:
		b.httpError("404 Not Found", "", "404 page not found", r.close)
	case !allows(allow, r.method):
		p.refused(s)
		b.httpError("405 Method Not Allowed", "Allow: "+allow+"\r\n", "method not allowed", r.close)
	default:
		h(s, b, r)
	}
	if r.close {
		return 0
	}
	return n
}

// allows reports whether method is in allow, a list as Allow writes it.
func allows(allow string, method []byte) bool {
	for m, rest, more := "", allow, true; more; {
		if m, rest, more = strings.Cut(rest, ", "); m == string(method) {
			return true
		}
	}
	return false
}

// The parameters the endpoints read, in the order of scanParams' result.
const paramName, paramType, paramSubnet, paramDNS = 0, 1, 2, 3

var paramKeys = [...]string{"name", "type", "edns_client_subnet", "dns"}

// scanParams reads a query string the way url.ParseQuery does and returns
// the first value of each of paramKeys, empty for an absent one. A ';' or
// a malformed percent-escape anywhere makes the whole string bad, whatever
// key it stands beside. A component without an escape is a slice of
// query; one with an escape is decoded onto scratch, returned as grown.
func scanParams(query, scratch []byte) (vals [len(paramKeys)][]byte, _ []byte, ok bool) {
	var seen [len(paramKeys)]bool
	for len(query) > 0 {
		var k, v []byte
		k, query, _ = bytes.Cut(query, []byte{'&'})
		k, v, _ = bytes.Cut(k, []byte{'='})
		if k, scratch, ok = unescape(k, scratch); !ok {
			return vals, scratch, false
		}
		if v, scratch, ok = unescape(v, scratch); !ok {
			return vals, scratch, false
		}
		for i, key := range paramKeys {
			if !seen[i] && string(k) == key {
				seen[i], vals[i] = true, v
			}
		}
	}
	return vals, scratch, true
}

// unescape decodes one component of a query string as url.QueryUnescape
// does: "%XX" is that byte, '+' a space, and a ';' is refused.
func unescape(s, scratch []byte) (_, _ []byte, ok bool) {
	if !bytes.ContainsAny(s, "%+;") {
		return s, scratch, true
	}
	mark := len(scratch)
	for i := 0; i < len(s); i++ {
		scratch = append(scratch, s[i])
		switch last := scratch[len(scratch)-1:]; s[i] {
		case '+':
			last[0] = ' '
		case '%':
			if n, _ := hex.Decode(last, s[i+1:min(i+3, len(s))]); n != 1 {
				return nil, scratch, false
			}
			i += 2
		case ';':
			return nil, scratch, false
		}
	}
	return scratch[mark:], scratch, true
}

// serveDoHWire serves RFC 8484 wire-format exchanges.
func (s *Server) serveDoHWire(b *streamBufs, r *httpRequest) {
	wire := r.content
	switch string(r.method) {
	case "GET":
		p, scratch, ok := scanParams(r.query, b.scratch[:0])
		if !ok {
			s.badRequest(b, r, "400 Bad Request", "bad query string")
			return
		}
		// RFC 8484 requires unpadded base64url; accept padded as a
		// courtesy (curl users add it). A missing parameter decodes to
		// the empty message, refused below.
		dec, err := base64.RawURLEncoding.AppendDecode(scratch, bytes.TrimRight(p[paramDNS], "="))
		b.scratch, wire = dec[:0], dec[len(scratch):]
		if err != nil {
			wire = nil
		}
	default: // POST
		if string(r.ctype) != "application/dns-message" {
			s.badRequest(b, r, "415 Unsupported Media Type", "content type must be application/dns-message")
			return
		}
	}
	if len(wire) == 0 || len(wire) > maxDoHRequest {
		s.badRequest(b, r, "400 Bad Request", "bad dns message")
		return
	}
	// HTTP has no 512-byte constraint: DoH gets the TCP budget, and no
	// response is truncated.
	s.respond(b, r, "application/dns-message", s.handle(wire, b.from, engine.TransportDoH, math.MaxUint16, b.resp[:0]))
}

// respond writes an endpoint's answer to a query: the body under a 200,
// or, for a query that was dropped (nil), a 500.
func (s *Server) respond(b *streamBufs, r *httpRequest, ctype string, body []byte) {
	if body == nil {
		s.dohDropped.Add(1)
		b.httpError("500 Internal Server Error", "", "query dropped", r.close)
		return
	}
	s.dohOK.Add(1)
	b.httpOK(ctype, body, r.close)
}

// parseDoHType maps a ?type= parameter (mnemonic or numeric) to a
// record type; empty means A.
func parseDoHType(v []byte) (dnswire.Type, bool) {
	switch {
	case len(v) == 0, bytes.EqualFold(v, []byte("A")):
		return dnswire.TypeA, true
	case bytes.EqualFold(v, []byte("AAAA")):
		return dnswire.TypeAAAA, true
	case bytes.EqualFold(v, []byte("TXT")):
		return dnswire.TypeTXT, true
	case bytes.EqualFold(v, []byte("ANY")), string(v) == "*":
		return dnswire.TypeANY, true
	}
	n := 0
	for _, c := range v {
		if c < '0' || c > '9' || n > math.MaxUint16 {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return dnswire.Type(n), n <= math.MaxUint16
}

// parseDoHSubnet parses an ?edns_client_subnet= parameter: an address
// with an optional /bits suffix (defaulting to a full-length prefix,
// as dns-json does). netip parses strings only, and converting v would be
// the request's one allocation, so its string shares v's bytes. That is
// sound because netip keeps its input only in an error, dropped here, and
// as an address's zone, which a client subnet has not: refused unparsed.
func parseDoHSubnet(v []byte) (netip.Prefix, bool) {
	s := unsafe.String(unsafe.SliceData(v), len(v))
	if strings.Contains(s, "%") {
		return netip.Prefix{}, false
	} else if !strings.Contains(s, "/") {
		a, err := netip.ParseAddr(s)
		return netip.PrefixFrom(a, a.BitLen()), err == nil
	}
	p, err := netip.ParsePrefix(s)
	return p.Masked(), err == nil
}

// appendResolveQuery appends the wire query a /resolve request stands
// for — byte for byte the dnswire.Message.Pack of its question (name,
// type, class IN) and, given a subnet, of SetClientSubnet's OPT record —
// or says what is wrong with the request.
func appendResolveQuery(dst, name, qtype, subnet []byte) (_ []byte, msg string) {
	if len(name) == 0 {
		return dst, "missing name parameter"
	}
	t, ok := parseDoHType(qtype)
	if !ok {
		return dst, "bad type parameter"
	}
	var ecs netip.Prefix
	if len(subnet) > 0 {
		if ecs, ok = parseDoHSubnet(subnet); !ok {
			return dst, "bad edns_client_subnet parameter"
		}
	}
	start := len(dst)
	dst = dnswire.AppendHeader(dst, dnswire.Header{OpCode: dnswire.OpQuery}, 1, 0, 0, 0)
	// The name as Pack writes it: its last dot optional, in lower case —
	// Unicode's, which is strings.ToLower's — and refused for an empty
	// label, a label over 63 bytes or 255 bytes in all.
	name = bytes.TrimSuffix(name, []byte{'.'})
	for more := len(name) > 0; more; {
		var label []byte
		label, name, more = bytes.Cut(name, []byte{'.'})
		at := len(dst)
		dst = append(dst, 0)
		for len(label) > 0 {
			r, n := utf8.DecodeRune(label)
			dst, label = utf8.AppendRune(dst, unicode.ToLower(r)), label[n:]
		}
		n := len(dst) - at - 1
		if n == 0 || n > 63 {
			return dst, "bad query"
		}
		dst[at] = byte(n)
	}
	dst = append(dst, 0, byte(t>>8), byte(t), 0, byte(dnswire.ClassIN))
	if len(dst)-start-12-4 > 255 {
		return dst, "bad query"
	}
	if ecs.IsValid() {
		dst[start+11] = 1
		dst = appendSubnetOPT(dst, dnswire.ClientSubnet{Prefix: ecs})
	}
	return dst, ""
}

// serveDoHJSON serves the dns-json style /resolve endpoint. It acts as
// a DNS client towards its own server: the parameters become a wire
// query (with a real ECS option when edns_client_subnet is given), which
// goes through the decoder and answer step every transport uses — so
// names and subnets from outside are validated in one place, and
// counters and limiter apply — and the reply is rendered
// as JSON directly, with no wire response in between.
func (s *Server) serveDoHJSON(b *streamBufs, r *httpRequest) {
	p, scratch, ok := scanParams(r.query, b.scratch[:0])
	wire, msg := scratch, "bad query string"
	if ok {
		wire, msg = appendResolveQuery(scratch, p[paramName], p[paramType], p[paramSubnet])
	}
	b.scratch = wire[:0]
	if msg != "" {
		s.badRequest(b, r, "400 Bad Request", msg)
		return
	}
	s.respond(b, r, "application/json", s.answerJSON(wire[len(scratch):], b.from, b.resp[:0]))
}

// answerJSON is handle with the JSON renderer in appendReply's place:
// decode, answer and render behind the same panic recovery.
func (s *Server) answerJSON(wire []byte, from netip.Addr, dst []byte) (body []byte) {
	defer func() {
		if s.recovered(recover(), from, engine.TransportDoH) {
			body = nil
		}
	}()
	q := dnswire.GetQuery()
	defer dnswire.PutQuery(q)
	r, _ := s.answer(q, wire, from, engine.TransportDoH)
	return s.appendJSON(dst, q, &r)
}

// appendJSON is the JSON renderer: the /resolve body for a reply (nil for
// shapeDrop), in the de-facto dns-json field names, field for field what
// decoding the wire response gives and byte for byte what encoding/json
// writes for a struct of those fields. The authority section has no place
// in the body: a negative answer is its status.
func (s *Server) appendJSON(dst []byte, q *dnswire.Query, r *reply) []byte {
	if r.shape == shapeDrop {
		return nil
	}
	dst = strconv.AppendUint(append(dst, `{"Status":`...), uint64(r.hdr.RCode), 10)
	dst = append(dst, `,"TC":false,"Question":`...)
	if r.shape < shapeQuestion {
		dst = append(dst, "null"...)
	} else {
		dst = appendJSONEscaped(append(dst, `[{"name":"`...), q.Name)
		dst = strconv.AppendUint(append(dst, `","type":`...), uint64(q.Type), 10)
		dst = append(dst, "}]"...)
	}
	if r.shape == shapeA || r.shape == shapeTXT { // one record, the zone's
		t, ttl := dnswire.TypeA, r.ttl
		if r.shape == shapeTXT {
			t, ttl = dnswire.TypeTXT, 0
		}
		dst = appendJSONEscaped(append(dst, `,"Answer":[{"name":"`...), s.zone)
		dst = strconv.AppendUint(append(dst, `","type":`...), uint64(t), 10)
		dst = strconv.AppendUint(append(dst, `,"TTL":`...), uint64(ttl), 10)
		dst = append(dst, `,"data":"`...)
		if r.shape == shapeA {
			dst = r.addr.AppendTo(dst)
		} else {
			dst = appendJSONEscaped(append(dst, "policy="...), s.policy.Name())
			dst = strconv.AppendUint(append(dst, " decisions="...), s.policy.Decisions(), 10)
		}
		dst = append(dst, `"}]`...)
	}
	if r.shape == shapeA && q.HasECS {
		dst = q.ECS.Prefix.AppendTo(append(dst, `,"edns_client_subnet":"`...))
		dst = strconv.AppendUint(append(dst, '/'), uint64(r.scope), 10)
		dst = append(dst, '"')
	}
	return append(dst, "}\n"...)
}

// appendJSONEscaped appends s as the inside of a JSON string, escaped as
// encoding/json escapes one, HTML characters, U+2028/9 and each byte
// that is not UTF-8 included: a name is whatever bytes the wire held.
func appendJSONEscaped[S []byte | string](dst []byte, s S) []byte {
	const hex, short = "0123456789abcdef", "\b\f\n\r\t"
	for i := 0; i < len(s); {
		r, n := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		}
		switch {
		case r == '"' || r == '\\':
			dst = append(dst, '\\', byte(r))
		case r < ' ' && strings.IndexRune(short, r) >= 0:
			dst = append(dst, '\\', "bfnrt"[strings.IndexRune(short, r)])
		case r < ' ' || r == '<' || r == '>' || r == '&' || r == '\u2028' || r == '\u2029':
			dst = append(dst, '\\', 'u', hex[r>>12], hex[r>>8&0xF], hex[r>>4&0xF], hex[r&0xF])
		case r == utf8.RuneError && n == 1:
			dst = append(dst, `\ufffd`...)
		default:
			dst = append(dst, s[i:i+n]...)
		}
		i += n
	}
	return dst
}
