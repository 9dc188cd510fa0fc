package dnsserver

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
	"runtime/debug"

	"dnslb/internal/core"
	"dnslb/internal/dnswire"
	"dnslb/internal/engine"
)

// The query path: one wire-format message in, one out, whatever front
// end it arrived through (UDP, pipelined TCP, DoH). Scheduling goes
// through the engine's DecideQuery — the same lifecycle (snapshot
// filtering, selection, TTL, mapping ledger) the simulator drives —
// fed by an engine.QueryContext carrying the resolver address, the
// RFC 7871 client subnet when the query forwarded one, and the
// transport tag. This file only adds DNS semantics around it: message
// validation, rate limiting, scoped ECS echo and response encoding.
//
// Decoding uses the pooled zero-alloc decoder (dnswire.UnpackQuery).
// The address answer — the response the TTL policy exists to hand out,
// and so the one whose cost is the cost of the policy — is a fixed
// template written straight into the pooled response buffer by
// appendAnswer, with no allocation; so are the header-only error
// replies, REFUSED above all, which is what a flood is answered with.
// The rare shapes (NOTIMP, NXDOMAIN, TXT, negative answers) build a
// dnswire.Message.

// safeHandle is handle behind a panic recovery: a bug in the query
// path must not kill the serve worker. The panic is logged with its
// stack, counted, and the query dropped (the client retries; losing
// one datagram is the UDP failure model anyway).
func (s *Server) safeHandle(wire []byte, from netip.Addr, tr engine.Transport, maxSize int, dst []byte) (resp []byte) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.logger.Error("panic in query handler",
				"panic", r, "raddr", from, "transport", tr, "stack", string(debug.Stack()))
			resp = nil
		}
	}()
	return s.handle(wire, from, tr, maxSize, dst)
}

// handle processes one wire-format query and returns the wire-format
// response (nil to drop), packed into dst's capacity when possible.
// dst must be a zero-length slice (or nil to allocate). handle touches
// no server-level lock: the engine and state are internally safe, and
// counters go to the caller's stats shard.
func (s *Server) handle(wire []byte, from netip.Addr, tr engine.Transport, maxSize int, dst []byte) []byte {
	// A dual-stack socket (a wildcard listen address) reports an IPv4
	// peer as ::ffff:a.b.c.d. Shed the mapping here, once, so the domain
	// mapper, the rate limiter and the stats shard see one resolver as
	// one address whatever socket it arrived on.
	from = from.Unmap()
	idx := s.statsIndex(from)
	st := &s.stats[idx]
	st.queries.Add(1)
	if int(tr) < numTransports {
		s.tquery[idx].counts[tr].Add(1)
	}
	q := dnswire.GetQuery()
	defer dnswire.PutQuery(q)
	if err := q.UnpackQuery(wire); err != nil || q.QDCount == 0 {
		st.formerr.Add(1)
		if len(wire) < 2 {
			return nil // cannot even echo an ID
		}
		return dnswire.AppendHeader(dst, dnswire.Header{
			ID:       uint16(wire[0])<<8 | uint16(wire[1]),
			Response: true,
			RCode:    dnswire.RCodeFormErr,
		}, 0, 0, 0, 0)
	}
	if q.Header.Response {
		return nil // never answer responses
	}
	if s.limiter != nil && !s.limiter.Allow(from) {
		st.ratelimited.Add(1)
		return dnswire.AppendHeader(dst, dnswire.Header{
			ID:       q.Header.ID,
			Response: true,
			OpCode:   q.Header.OpCode,
			RCode:    dnswire.RCodeRefused,
		}, 0, 0, 0, 0)
	}
	// string(q.Name) in a comparison does not allocate; the name is
	// already canonical (lower-case, trailing dot).
	if q.Header.OpCode == dnswire.OpQuery && string(q.Name) == s.zone &&
		(q.Type == dnswire.TypeA || q.Type == dnswire.TypeANY) {
		return s.handleAddress(q, from, tr, idx, st, dst)
	}
	return s.handleOther(q, idx, st, maxSize, dst)
}

// handleAddress answers an address query for the zone: one scheduling
// decision, one A record. While the admission controller has the server
// degraded (overload.go) the decision comes from the engine's static
// capacity-weighted round-robin ladder with the configured short TTL,
// skipping the policy and the estimator feed, and an ECS option is
// echoed with scope zero ("answer not tailored to your subnet"), which
// is exactly true of the ladder. Otherwise DecideQuery classifies the
// originating domain from the forwarded client subnet (per the
// configured ECS mode) or the resolver's address, and reports the scope
// to echo. SERVFAIL only when every server is unschedulable, never
// because of load.
func (s *Server) handleAddress(q *dnswire.Query, from netip.Addr, tr engine.Transport, idx uint32, st *statsShard, dst []byte) []byte {
	var (
		d     core.Decision
		scope uint8
		err   error
	)
	degraded := s.over != nil && s.over.active()
	if degraded {
		d, err = s.eng.DecideFallback(s.over.cfg.DegradedTTL)
	} else {
		var qd engine.QueryDecision
		qd, err = s.eng.DecideQuery(queryContext(q, from, tr))
		d, scope = qd.Decision, qd.Scope
	}
	if err != nil {
		st.servfail.Add(1)
		return s.appendQuestion(dst, q, dnswire.RCodeServFail, 0, 0)
	}
	if s.metrics != nil {
		s.metrics.ttl.ObserveHint(idx, d.TTL)
		if q.HasECS {
			s.metrics.ecsScope.ObserveHint(idx, float64(scope))
		}
	}
	st.answered.Add(1)
	if degraded {
		s.over.noteDegradedAnswer(idx)
	}
	return s.appendAnswer(dst, q, s.serverAddrs()[d.Server], wireTTL(d.TTL), scope)
}

// queryContext assembles the engine's decision input for one query.
func queryContext(q *dnswire.Query, from netip.Addr, tr engine.Transport) engine.QueryContext {
	qc := engine.QueryContext{Resolver: from, Transport: tr}
	if q.HasECS && q.ECS.Prefix.IsValid() {
		qc.ClientSubnet = q.ECS.Prefix
	}
	return qc
}

// wireTTL rounds a policy TTL in seconds to the wire's whole seconds.
// Never 0: a zero TTL forbids caching, and then every request of the
// domain comes back to the DNS.
func wireTTL(seconds float64) uint32 {
	r := math.Round(seconds)
	if !(r >= 1) { // NaN too
		return 1
	}
	if r >= math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(r)
}

// appendQuestion appends the header of an authoritative response to q
// — its ID and RD echoed — and q's question: byte for byte as it
// arrived, so a resolver that randomized the name's case gets its own
// spelling back, or, when the query compressed the name, the zone's
// canonical name (every caller has matched the name against the zone).
func (s *Server) appendQuestion(dst []byte, q *dnswire.Query, rcode dnswire.RCode, an, ar int) []byte {
	dst = dnswire.AppendHeader(dst, dnswire.Header{
		ID:               q.Header.ID,
		Response:         true,
		Authoritative:    true,
		RecursionDesired: q.Header.RecursionDesired,
		RCode:            rcode,
	}, 1, an, 0, ar)
	if q.Question != nil {
		return append(dst, q.Question...)
	}
	dst = append(dst, s.zoneWire...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(q.Type))
	return binary.BigEndian.AppendUint16(dst, uint16(q.Class))
}

// appendAnswer appends the address answer to q — header, question, one
// A record for addr and, when the query carried a Client Subnet option,
// the OPT record echoing it with the given scope (RFC 7871 §7.2.2) —
// and is the only place the server encodes one. Byte for byte what
// dnswire.Message.AppendPack produces for the same response, without
// building the Message. dst must be zero-length: the record's owner
// name is a compression pointer to the question at offset 12. The
// response is at most 322 bytes (a 255-byte name, an IPv6 /128 echo),
// so it fits every transport's limit and is never truncated.
func (s *Server) appendAnswer(dst []byte, q *dnswire.Query, addr netip.Addr, ttl uint32, scope uint8) []byte {
	ar := 0
	if q.HasECS {
		ar = 1
	}
	dst = s.appendQuestion(dst, q, dnswire.RCodeNoError, 1, ar)
	a := addr.As4()
	dst = append(dst, 0xC0, 12, 0, byte(dnswire.TypeA), 0, byte(dnswire.ClassIN))
	dst = binary.BigEndian.AppendUint32(dst, ttl)
	dst = append(dst, 0, 4, a[0], a[1], a[2], a[3])
	if !q.HasECS {
		return dst
	}
	// OPT: root owner, CLASS = the 512-byte payload this server accepts,
	// TTL (extended RCODE, version, flags) zero, one option.
	dst = append(dst, 0, 0, byte(dnswire.TypeOPT), dnswire.MaxUDPPayload>>8, dnswire.MaxUDPPayload&0xFF, 0, 0, 0, 0)
	rdlenAt := len(dst)
	dst = append(dst, 0, 0, 0, byte(dnswire.OptionClientSubnet), 0, 0)
	dst, err := dnswire.EchoClientSubnet(q.ECS, scope).AppendPack(dst)
	if err != nil {
		return nil // unreachable: HasECS means the option parsed
	}
	optLen := len(dst) - rdlenAt - 6
	dst[rdlenAt+1] = byte(optLen + 4)
	dst[rdlenAt+5] = byte(optLen)
	return dst
}

// handleOther serves every shape but the address answer by building a
// dnswire.Message: NOTIMP, NXDOMAIN, TXT and negative answers.
func (s *Server) handleOther(q *dnswire.Query, idx uint32, st *statsShard, maxSize int, dst []byte) []byte {
	resp := &dnswire.Message{
		Header: dnswire.Header{
			ID:               q.Header.ID,
			Response:         true,
			OpCode:           q.Header.OpCode,
			Authoritative:    true,
			RecursionDesired: q.Header.RecursionDesired,
		},
		Questions: []dnswire.Question{{Name: string(q.Name), Type: q.Type, Class: q.Class}},
	}
	switch {
	case q.Header.OpCode != dnswire.OpQuery:
		resp.Header.RCode = dnswire.RCodeNotImp
		st.notimp.Add(1)
	case resp.Questions[0].Name != s.zone:
		resp.Header.RCode = dnswire.RCodeNXDomain
		resp.Authority = []dnswire.ResourceRecord{s.soa()}
		st.nxdomain.Add(1)
	case q.Type == dnswire.TypeTXT:
		// Debug visibility: the policy name and decision counters.
		stats := s.policy.Stats()
		resp.Answers = []dnswire.ResourceRecord{{
			Name:  s.zone,
			Type:  dnswire.TypeTXT,
			Class: dnswire.ClassIN,
			TTL:   0,
			Data: dnswire.TXT{Strings: []string{
				"policy=" + s.policy.Name(),
				fmt.Sprintf("decisions=%d", stats.Decisions),
			}},
		}}
		st.answered.Add(1)
	default:
		// Name exists but no data of this type: NOERROR + SOA.
		resp.Authority = []dnswire.ResourceRecord{s.soa()}
		st.answered.Add(1)
	}
	out := mustPack(resp, dst)
	if len(out) > maxSize {
		resp.Answers = nil
		resp.Authority = nil
		resp.Header.Truncated = true
		st.truncated.Add(1)
		out = mustPack(resp, out[:0])
	}
	// The sender's spelling goes back over the canonical name in place
	// (see appendQuestion): the two differ in letter case only, unless a
	// label held a dot, which the canonical form reads as two labels.
	if n := 12 + len(q.Question); len(out) >= n && bytes.EqualFold(out[12:n], q.Question) {
		copy(out[12:], q.Question)
	}
	return out
}

// soa returns the zone's SOA record, used in negative responses.
func (s *Server) soa() dnswire.ResourceRecord {
	return dnswire.ResourceRecord{
		Name:  s.zone,
		Type:  dnswire.TypeSOA,
		Class: dnswire.ClassIN,
		TTL:   60,
		Data: dnswire.SOA{
			MName:   "ns1." + s.zone,
			RName:   "hostmaster." + s.zone,
			Serial:  1,
			Refresh: 3600,
			Retry:   600,
			Expire:  86400,
			Minimum: 60,
		},
	}
}

// mustPack appends the encoded message to dst (a zero-length slice or
// nil), returning nil on encode failure: responses are built from
// validated parts, so a pack failure is a programming error, but in
// production we drop the response instead of crashing.
func mustPack(m *dnswire.Message, dst []byte) []byte {
	out, err := m.AppendPack(dst)
	if err != nil {
		return nil
	}
	return out
}
