package dnsserver

import (
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/netip"
	"strconv"
	"strings"

	"dnslb/internal/dnswire"
	"dnslb/internal/engine"
)

// DNS-over-HTTPS front end (enabled by Config.HTTPAddr).
//
// Two endpoints share the engine, the rate limiter, the
// overload-degradation ladder, and the per-transport metrics with
// the UDP and TCP fronts, because every request funnels into the same
// safeHandle the socket serve loops call:
//
//   - /dns-query — RFC 8484 wire format: GET with a ?dns= base64url
//     parameter, or POST with an application/dns-message body. The
//     response body is the verbatim wire response, so a stub resolver
//     speaking DoH gets bit-identical answers to one speaking UDP.
//   - /resolve — a dns-json style debugging endpoint: ?name=…&type=…
//     [&edns_client_subnet=…] rendered as JSON. The subnet parameter
//     builds a real ECS option into the synthesized query, so the
//     JSON endpoint exercises the identical classification path.
//
// The front end is HTTP (not TLS): production deployments terminate
// TLS ahead of the process, and the tests exercise the protocol, not
// the transport security.

// maxDoHRequest bounds an accepted DoH request body; same budget as a
// TCP query, and for the same reason.
const maxDoHRequest = maxTCPQuery

// dohMux routes the two DoH endpoints.
func (s *Server) dohMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/dns-query", s.handleDoHWire)
	mux.HandleFunc("/resolve", s.handleDoHJSON)
	return mux
}

// dohClientAddr recovers the querying client's address from the HTTP
// request for rate limiting and (absent ECS) domain classification —
// the same role the source address plays on the socket paths.
func dohClientAddr(r *http.Request) netip.Addr {
	if ap, err := netip.ParseAddrPort(r.RemoteAddr); err == nil {
		return ap.Addr()
	}
	// httptest and exotic transports may hand a bare host.
	if a, err := netip.ParseAddr(r.RemoteAddr); err == nil {
		return a
	}
	return netip.Addr{}
}

// handleDoHWire serves RFC 8484 wire-format exchanges.
func (s *Server) handleDoHWire(w http.ResponseWriter, r *http.Request) {
	var wire []byte
	switch r.Method {
	case http.MethodGet:
		enc := r.URL.Query().Get("dns")
		if enc == "" {
			s.dohBadRequest.Add(1)
			http.Error(w, "missing dns parameter", http.StatusBadRequest)
			return
		}
		// RFC 8484 requires unpadded base64url; accept padded as a
		// courtesy (curl users add it).
		dec, err := base64.RawURLEncoding.DecodeString(strings.TrimRight(enc, "="))
		if err != nil {
			s.dohBadRequest.Add(1)
			http.Error(w, "bad dns parameter", http.StatusBadRequest)
			return
		}
		wire = dec
	case http.MethodPost:
		if ct := r.Header.Get("Content-Type"); ct != "application/dns-message" {
			s.dohBadRequest.Add(1)
			http.Error(w, "content type must be application/dns-message", http.StatusUnsupportedMediaType)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, maxDoHRequest+1))
		if err != nil || len(body) == 0 || len(body) > maxDoHRequest {
			s.dohBadRequest.Add(1)
			http.Error(w, "bad request body", http.StatusBadRequest)
			return
		}
		wire = body
	default:
		s.dohBadRequest.Add(1)
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if len(wire) == 0 || len(wire) > maxDoHRequest {
		s.dohBadRequest.Add(1)
		http.Error(w, "bad dns message size", http.StatusBadRequest)
		return
	}
	bp := packPool.Get().(*[]byte)
	resp := s.safeHandle(wire, dohClientAddr(r), engine.TransportDoH, maxDoHResponse, (*bp)[:0])
	if resp == nil {
		packPool.Put(bp)
		s.dohDropped.Add(1)
		http.Error(w, "query dropped", http.StatusInternalServerError)
		return
	}
	s.dohOK.Add(1)
	w.Header().Set("Content-Type", "application/dns-message")
	w.Header().Set("Content-Length", strconv.Itoa(len(resp)))
	_, _ = w.Write(resp)
	if cap(resp) > cap(*bp) {
		*bp = resp[:0]
	}
	packPool.Put(bp)
}

// maxDoHResponse is the response size budget handed to the handler:
// HTTP has no 512-byte constraint, so DoH gets the TCP budget and
// never truncates a single-answer response.
const maxDoHResponse = 65535

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

// handleDoHJSON serves the dns-json style /resolve endpoint by
// synthesizing a wire query (including a real ECS option when
// edns_client_subnet is given), running it through the standard
// handler, and rendering the wire response as JSON.
func (s *Server) handleDoHJSON(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.dohBadRequest.Add(1)
		w.Header().Set("Allow", "GET")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	params := r.URL.Query()
	name := params.Get("name")
	if name == "" {
		s.dohBadRequest.Add(1)
		http.Error(w, "missing name parameter", http.StatusBadRequest)
		return
	}
	if !strings.HasSuffix(name, ".") {
		name += "."
	}
	qtype, ok := parseDoHType(params.Get("type"))
	if !ok {
		s.dohBadRequest.Add(1)
		http.Error(w, "bad type parameter", http.StatusBadRequest)
		return
	}
	q := &dnswire.Message{
		Header:    dnswire.Header{OpCode: dnswire.OpQuery},
		Questions: []dnswire.Question{{Name: strings.ToLower(name), Type: qtype, Class: dnswire.ClassIN}},
	}
	if sn := params.Get("edns_client_subnet"); sn != "" {
		p, ok := parseDoHSubnet(sn)
		if !ok {
			s.dohBadRequest.Add(1)
			http.Error(w, "bad edns_client_subnet parameter", http.StatusBadRequest)
			return
		}
		if err := q.SetClientSubnet(dnswire.ClientSubnet{Prefix: p}, dnswire.MaxUDPPayload); err != nil {
			s.dohBadRequest.Add(1)
			http.Error(w, "bad edns_client_subnet parameter", http.StatusBadRequest)
			return
		}
	}
	wire, err := q.Pack()
	if err != nil {
		s.dohBadRequest.Add(1)
		http.Error(w, "bad query", http.StatusBadRequest)
		return
	}
	bp := packPool.Get().(*[]byte)
	respWire := s.safeHandle(wire, dohClientAddr(r), engine.TransportDoH, maxDoHResponse, (*bp)[:0])
	if respWire == nil {
		packPool.Put(bp)
		s.dohDropped.Add(1)
		http.Error(w, "query dropped", http.StatusInternalServerError)
		return
	}
	m, err := dnswire.Unpack(respWire)
	packPool.Put(bp)
	if err != nil {
		s.dohDropped.Add(1)
		http.Error(w, "bad response", http.StatusInternalServerError)
		return
	}
	out := dohJSONResponse{
		Status: uint16(m.Header.RCode),
		TC:     m.Header.Truncated,
	}
	for _, qq := range m.Questions {
		out.Question = append(out.Question, dohJSONQ{Name: qq.Name, Type: uint16(qq.Type)})
	}
	for _, rr := range m.Answers {
		out.Answer = append(out.Answer, dohJSONAnswer{
			Name: rr.Name,
			Type: uint16(rr.Type),
			TTL:  rr.TTL,
			Data: renderRData(rr.Data),
		})
	}
	if cs, ok := m.ClientSubnet(); ok {
		out.Subnet = cs.Prefix.Addr().String() + "/" +
			strconv.Itoa(cs.Prefix.Bits()) + "/" + strconv.Itoa(int(cs.ScopePrefixLen))
	}
	s.dohOK.Add(1)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// renderRData renders a record's data as the dns-json presentation
// string.
func renderRData(d dnswire.RData) string {
	switch v := d.(type) {
	case dnswire.A:
		return v.Addr.String()
	case dnswire.AAAA:
		return v.Addr.String()
	case dnswire.TXT:
		return strings.Join(v.Strings, " ")
	default:
		return ""
	}
}
