package dnsserver

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/netip"
	"runtime/debug"
	"strconv"

	"dnslb/internal/dnswire"
	"dnslb/internal/engine"
)

// The query path: one wire-format message in, one reply out, whatever
// front end it arrived through (UDP, pipelined TCP, DoH), in three
// steps. Decode is the pooled zero-alloc dnswire.UnpackQuery. Answer is
// everything the server decides: counters, the response-bit drop, rate
// limiting, DNS semantics for the zone and, for an address query, the
// scheduling decision — the engine's DecideQuery, the same lifecycle
// (snapshot filtering, selection, TTL, mapping ledger) the simulator
// drives, fed by an engine.QueryContext carrying the resolver address,
// the RFC 7871 client subnet when the query forwarded one, and the
// transport tag. Its result is one small value, a reply: the header to
// send and the shape of the message under it.
//
// Render turns the reply into bytes, and there are two renderers.
// appendReply writes the wire form of every shape straight into the
// caller's pooled buffer, with no allocation and no dnswire.Message: the
// address answer the TTL policy exists to hand out, the header-only
// errors (REFUSED above all, which is what a flood is answered with),
// and NXDOMAIN, NODATA, TXT and NOTIMP, which reach the authority as
// often as resolver caches let them. answerJSON (doh.go) fills the
// /resolve body from the same reply, with no wire response in between.

// shape says what a reply consists of: each value is the one before it
// and something more, up to the question, and then one kind of record.
type shape uint8

const (
	shapeDrop     shape = iota // no reply: the query is dropped
	shapeHeader                // the header alone: FORMERR, REFUSED
	shapeQuestion              // and the question echoed: NOTIMP, SERVFAIL
	shapeA                     // and one A record, plus the ECS echo for a query that had the option
	shapeTXT                   // and the debug TXT pair, policy name and decision count
	shapeSOA                   // and the zone's SOA as authority: NXDOMAIN, and NODATA for the zone itself
)

// reply is what the server decided to say to one query, before any
// encoding. What else a renderer needs — the question, the client subnet
// to echo — it reads from the decoded query.
type reply struct {
	shape shape
	// hdr is the response header: the query's ID, and its opcode and RD
	// bit as far as the message was understood.
	hdr dnswire.Header
	// The A record: the chosen server, the TTL the policy assigned the
	// mapping, and the scope prefix length of the ECS echo.
	addr  netip.Addr
	ttl   uint32
	scope uint8
}

// recovered is the query path's panic recovery, given recover()'s result
// by a deferred function: a bug under answer or a renderer must not kill
// the serve worker. The panic is logged with its stack and counted, and
// the caller drops the query (the client retries; losing one datagram is
// the UDP failure model anyway).
func (s *Server) recovered(r any, from netip.Addr, tr engine.Transport) bool {
	if r != nil {
		s.panics.Add(1)
		s.logger.Error("panic in query handler",
			"panic", r, "raddr", from, "transport", tr, "stack", string(debug.Stack()))
	}
	return r != nil
}

// handle processes one wire-format query, behind the panic recovery,
// and returns the wire-format response (nil to drop), packed into dst's
// capacity when possible. dst must be a zero-length slice (or nil to
// allocate). handle touches no server-level lock: the engine and state
// are internally safe, and counters go to the caller's stats shard.
func (s *Server) handle(wire []byte, from netip.Addr, tr engine.Transport, maxSize int, dst []byte) (resp []byte) {
	defer func() {
		if s.recovered(recover(), from, tr) {
			resp = nil
		}
	}()
	q := dnswire.GetQuery()
	defer dnswire.PutQuery(q)
	r, st := s.answer(q, wire, from, tr)
	return s.appendReply(dst, q, &r, maxSize, st)
}

// answer decodes wire into q and decides the reply to it. st is the
// stats shard the query was counted on.
func (s *Server) answer(q *dnswire.Query, wire []byte, from netip.Addr, tr engine.Transport) (r reply, st *statsShard) {
	// A dual-stack socket (a wildcard listen address) reports an IPv4
	// peer as ::ffff:a.b.c.d. Shed the mapping here, once, so the domain
	// mapper, the rate limiter and the stats shard see one resolver as
	// one address whatever socket it arrived on.
	from = from.Unmap()
	idx := s.statsIndex(from)
	st = &s.stats[idx]
	st.c[cQueries].Add(1)
	if int(tr) < numTransports {
		st.c[cTransport+statsCounter(tr)].Add(1)
	}
	if err := q.UnpackQuery(wire); err != nil || q.QDCount == 0 {
		st.c[cFormErr].Add(1)
		if len(wire) >= 2 { // or it cannot even echo an ID
			r.shape = shapeHeader
			r.hdr = dnswire.Header{ID: binary.BigEndian.Uint16(wire), Response: true, RCode: dnswire.RCodeFormErr}
		}
		return r, st
	}
	if q.Header.Response {
		return r, st // never answer responses
	}
	r.shape = shapeHeader
	r.hdr = dnswire.Header{ID: q.Header.ID, Response: true, OpCode: q.Header.OpCode}
	if s.limiter != nil && !s.limiter.Allow(from) {
		st.c[cRateLimited].Add(1)
		r.hdr.RCode = dnswire.RCodeRefused
		return r, st
	}
	r.shape = shapeQuestion
	r.hdr.Authoritative = true
	r.hdr.RecursionDesired = q.Header.RecursionDesired
	switch {
	case q.Header.OpCode != dnswire.OpQuery:
		r.hdr.RCode = dnswire.RCodeNotImp
		st.c[cNotImp].Add(1)
	// string(q.Name) in a comparison does not allocate; the name is
	// already canonical (lower-case, trailing dot).
	case string(q.Name) != s.zone:
		r.hdr.RCode = dnswire.RCodeNXDomain
		r.shape = shapeSOA
		st.c[cNXDomain].Add(1)
	case q.Type == dnswire.TypeA || q.Type == dnswire.TypeANY:
		s.decideAddress(&r, q, from, tr, idx, st)
	case q.Type == dnswire.TypeTXT:
		r.shape = shapeTXT // debug visibility: the policy name and decision counter
		st.c[cAnswered].Add(1)
	default:
		r.shape = shapeSOA // the name exists but has no data of this type: NOERROR + SOA
		st.c[cAnswered].Add(1)
	}
	return r, st
}

// decideAddress answers an address query for the zone: one scheduling
// decision, one A record. DecideQuery classifies the originating domain
// from the forwarded client subnet (per the configured ECS mode) or the
// resolver's address, and reports the scope to echo. SERVFAIL only when
// every server is unschedulable, never because of load.
func (s *Server) decideAddress(r *reply, q *dnswire.Query, from netip.Addr, tr engine.Transport, idx uint32, st *statsShard) {
	qc := engine.QueryContext{Resolver: from, Transport: tr}
	if q.HasECS && q.ECS.Prefix.IsValid() {
		qc.ClientSubnet = q.ECS.Prefix
	}
	qd, err := s.eng.DecideQuery(qc)
	if err != nil {
		st.c[cServFail].Add(1)
		r.hdr.RCode = dnswire.RCodeServFail
		return
	}
	if s.metrics != nil {
		s.metrics.ttl.ObserveHint(idx, qd.Decision.TTL)
		if q.HasECS {
			s.metrics.ecsScope.ObserveHint(idx, float64(qd.Scope))
		}
	}
	st.c[cAnswered].Add(1)
	r.shape, r.addr, r.ttl, r.scope = shapeA, s.serverAddrs()[qd.Decision.Server], wireTTL(qd.Decision.TTL), qd.Scope
}

// wireTTL rounds a policy TTL in seconds down to the wire's whole
// seconds, so that no resolver holds a mapping past the window the ledger
// counts for it, which a drain waits out (every policy TTL is ≥ 1 s).
// Never 0: a zero TTL forbids caching, and then every request of the
// domain comes back to the DNS.
func wireTTL(seconds float64) uint32 {
	r := math.Floor(seconds)
	if !(r >= 1) { // NaN too
		return 1
	}
	if r >= math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(r)
}

// appendReply is the wire renderer, the only place the server encodes a
// response (nil for shapeDrop): byte for byte what
// dnswire.Message.AppendPack produces for the same response wherever the
// question names the zone, without building the Message. dst must be
// zero-length: compression pointers count from the start of dst. Each
// record counts itself into the header (the low bytes of ANCOUNT,
// NSCOUNT and ARCOUNT are dst[7], dst[9] and dst[11]). A response over
// maxSize goes out as header and question with TC set; on UDP that is a
// negative answer for a long name outside a long zone — an address
// answer is at most 322 bytes (a 255-byte name, an IPv6 /128 echo) and
// fits every transport's limit.
func (s *Server) appendReply(dst []byte, q *dnswire.Query, r *reply, maxSize int, st *statsShard) []byte {
	switch r.shape {
	case shapeDrop:
		return nil
	case shapeHeader:
		return dnswire.AppendHeader(dst, r.hdr, 0, 0, 0, 0)
	}
	dst = dnswire.AppendHeader(dst, r.hdr, 1, 0, 0, 0)
	// The question goes back byte for byte as it arrived, so a resolver
	// that randomized the name's case gets its own spelling back. A name
	// the query compressed cannot be copied as is and is written from its
	// canonical form ("a.b.", "." for the root), label by label; the zone's
	// name would do only for the callers that matched it.
	if q.Question != nil {
		dst = append(dst, q.Question...)
	} else {
		name := q.Name
		for n := bytes.IndexByte(name, '.'); n > 0; n = bytes.IndexByte(name, '.') {
			dst = append(append(dst, byte(n)), name[:n]...)
			name = name[n+1:]
		}
		dst = append(dst, 0, byte(q.Type>>8), byte(q.Type), byte(q.Class>>8), byte(q.Class))
	}
	switch r.shape {
	case shapeA:
		dst = appendA(dst, q, r)
	case shapeTXT:
		dst = s.appendTXT(dst)
	case shapeSOA:
		dst = s.appendSOA(dst)
	}
	if len(dst) > maxSize && r.shape > shapeQuestion {
		st.c[cTruncated].Add(1)
		r.hdr.Truncated, r.shape = true, shapeQuestion
		return s.appendReply(dst[:0], q, r, maxSize, st)
	}
	return dst
}

// appendA appends the address answer — one A record for r.addr and, when
// the query carried a Client Subnet option, the OPT record echoing it
// with r.scope (RFC 7871 §7.2.2). The question names the zone, so the
// record's owner is a compression pointer to it at offset 12.
func appendA(dst []byte, q *dnswire.Query, r *reply) []byte {
	a := r.addr.As4()
	dst[7] = 1
	dst = append(dst, 0xC0, 12, 0, byte(dnswire.TypeA), 0, byte(dnswire.ClassIN))
	dst = binary.BigEndian.AppendUint32(dst, r.ttl)
	dst = append(dst, 0, 4, a[0], a[1], a[2], a[3])
	if !q.HasECS {
		return dst
	}
	dst[11] = 1
	return appendSubnetOPT(dst, dnswire.EchoClientSubnet(q.ECS, r.scope))
}

// appendSubnetOPT appends an OPT record whose one option is the client
// subnet cs, which must be valid: root owner, CLASS = the 512-byte payload
// this server accepts, TTL (extended RCODE, version, flags) zero. The
// caller counts it into ARCOUNT.
func appendSubnetOPT(dst []byte, cs dnswire.ClientSubnet) []byte {
	dst = append(dst, 0, 0, byte(dnswire.TypeOPT), dnswire.MaxUDPPayload>>8, dnswire.MaxUDPPayload&0xFF, 0, 0, 0, 0)
	rdlenAt := len(dst)
	dst = append(dst, 0, 0, 0, byte(dnswire.OptionClientSubnet), 0, 0)
	dst, err := cs.AppendPack(dst)
	if err != nil {
		return nil // unreachable: the prefix parsed, from an option or from text
	}
	optLen := len(dst) - rdlenAt - 6
	dst[rdlenAt+1] = byte(optLen + 4)
	dst[rdlenAt+5] = byte(optLen)
	return dst
}

// appendZoneName appends the zone's name as a record's owner to dst,
// which holds header and question, and returns where in dst later names
// can point to it. The question spells it already when it asks about the
// zone (at offset 12) or about a name under it (as that name's tail); the
// owner is then a compression pointer there. Beside any other name it is
// written in full. The tail is held against zoneWire byte by byte but
// for the case of letters: label lengths, at most 63, lie below every
// letter, so a match decodes to the zone's name even where the tail does
// not begin on one of the question's label boundaries.
func (s *Server) appendZoneName(dst []byte) ([]byte, int) {
	at := len(dst) - 4 - len(s.zoneWire)
	spelled := at >= 12
	for i := 0; spelled && i < len(s.zoneWire); i++ {
		c := dst[at+i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		spelled = c == s.zoneWire[i]
	}
	if !spelled {
		return append(dst, s.zoneWire...), len(dst)
	}
	return append(dst, 0xC0|byte(at>>8), byte(at)), at
}

// appendTXT appends the debug answer: one TXT record for the zone, TTL 0,
// of two strings, "policy=<name>" and "decisions=<count>".
func (s *Server) appendTXT(dst []byte) []byte {
	dst[7] = 1
	dst, _ = s.appendZoneName(dst)
	dst = append(dst, 0, byte(dnswire.TypeTXT), 0, byte(dnswire.ClassIN), 0, 0, 0, 0, 0, 0)
	rdata := len(dst)
	dst = append(append(dst, byte(len("policy=")+len(s.policy.Name()))), "policy="...)
	dst = append(dst, s.policy.Name()...)
	counter := len(dst)
	dst = append(dst, 0) // the second string's length, known once it is written
	dst = strconv.AppendUint(append(dst, "decisions="...), s.policy.Decisions(), 10)
	dst[counter] = byte(len(dst) - counter - 1)
	binary.BigEndian.PutUint16(dst[rdata-2:], uint16(len(dst)-rdata))
	return dst
}

// appendSOA appends the zone's SOA record, the authority section of the
// negative answers: TTL and MINIMUM 60, which is how long a resolver may
// cache the denial (RFC 2308 §5); primary ns1.<zone> and mailbox
// hostmaster.<zone>, each one label and a pointer to the zone's name.
func (s *Server) appendSOA(dst []byte) []byte {
	dst[9] = 1
	dst, zoneAt := s.appendZoneName(dst)
	hi, lo := 0xC0|byte(zoneAt>>8), byte(zoneAt)
	dst = append(dst, 0, byte(dnswire.TypeSOA), 0, byte(dnswire.ClassIN), 0, 0, 0, 60)
	dst = append(dst, 0, 6+13+20) // RDLENGTH: the two names and five 32-bit fields
	dst = append(dst, 3, 'n', 's', '1', hi, lo)
	dst = append(dst, 10, 'h', 'o', 's', 't', 'm', 'a', 's', 't', 'e', 'r', hi, lo)
	dst = binary.BigEndian.AppendUint32(dst, 1)     // serial
	dst = binary.BigEndian.AppendUint32(dst, 3600)  // refresh
	dst = binary.BigEndian.AppendUint32(dst, 600)   // retry
	dst = binary.BigEndian.AppendUint32(dst, 86400) // expire
	return binary.BigEndian.AppendUint32(dst, 60)   // minimum
}
