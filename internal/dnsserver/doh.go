package dnsserver

import (
	"encoding/base64"
	"encoding/json"
	"io"
	"math"
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

// badRequest refuses a DoH request the front end could not make a DNS
// query of, and counts it.
func (s *Server) badRequest(w http.ResponseWriter, msg string, code int) {
	s.dohBadRequest.Add(1)
	http.Error(w, msg, code)
}

// handleDoHWire serves RFC 8484 wire-format exchanges.
func (s *Server) handleDoHWire(w http.ResponseWriter, r *http.Request) {
	var wire []byte
	var err error
	switch r.Method {
	case http.MethodGet:
		// RFC 8484 requires unpadded base64url; accept padded as a
		// courtesy (curl users add it). A missing parameter decodes to
		// the empty message, refused below.
		wire, err = base64.RawURLEncoding.DecodeString(strings.TrimRight(r.URL.Query().Get("dns"), "="))
	case http.MethodPost:
		if ct := r.Header.Get("Content-Type"); ct != "application/dns-message" {
			s.badRequest(w, "content type must be application/dns-message", http.StatusUnsupportedMediaType)
			return
		}
		wire, err = io.ReadAll(io.LimitReader(r.Body, maxDoHRequest+1))
	default:
		w.Header().Set("Allow", "GET, POST")
		s.badRequest(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if err != nil || len(wire) == 0 || len(wire) > maxDoHRequest {
		s.badRequest(w, "bad dns message", http.StatusBadRequest)
		return
	}
	bp := packPool.Get().(*[]byte)
	defer packPool.Put(bp)
	// HTTP has no 512-byte constraint: DoH gets the TCP budget, and no
	// response is truncated.
	resp := s.handle(wire, dohClientAddr(r), engine.TransportDoH, math.MaxUint16, (*bp)[:0])
	if resp == nil {
		s.dohDropped.Add(1)
		http.Error(w, "query dropped", http.StatusInternalServerError)
		return
	}
	s.dohOK.Add(1)
	w.Header().Set("Content-Type", "application/dns-message")
	w.Header().Set("Content-Length", strconv.Itoa(len(resp)))
	_, _ = w.Write(resp)
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

// handleDoHJSON serves the dns-json style /resolve endpoint. It acts as
// a DNS client towards its own server: the parameters become a wire
// query (with a real ECS option when edns_client_subnet is given), which
// goes through the decoder and answer step every transport uses — so
// names and subnets from outside are validated in one place, and
// counters, limiter and degraded mode apply — and the reply is rendered
// as JSON directly, with no wire response in between.
func (s *Server) handleDoHJSON(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		s.badRequest(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	params := r.URL.Query()
	name := params.Get("name")
	if name == "" {
		s.badRequest(w, "missing name parameter", http.StatusBadRequest)
		return
	}
	if !strings.HasSuffix(name, ".") {
		name += "."
	}
	qtype, ok := parseDoHType(params.Get("type"))
	if !ok {
		s.badRequest(w, "bad type parameter", http.StatusBadRequest)
		return
	}
	q := &dnswire.Message{
		Header:    dnswire.Header{OpCode: dnswire.OpQuery},
		Questions: []dnswire.Question{{Name: strings.ToLower(name), Type: qtype, Class: dnswire.ClassIN}},
	}
	if sn := params.Get("edns_client_subnet"); sn != "" {
		p, ok := parseDoHSubnet(sn)
		if !ok || q.SetClientSubnet(dnswire.ClientSubnet{Prefix: p}, dnswire.MaxUDPPayload) != nil {
			s.badRequest(w, "bad edns_client_subnet parameter", http.StatusBadRequest)
			return
		}
	}
	wire, err := q.Pack()
	if err != nil {
		s.badRequest(w, "bad query", http.StatusBadRequest)
		return
	}
	out, ok := s.answerJSON(wire, dohClientAddr(r))
	if !ok {
		s.dohDropped.Add(1)
		http.Error(w, "query dropped", http.StatusInternalServerError)
		return
	}
	s.dohOK.Add(1)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
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
