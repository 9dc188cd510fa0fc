// Package loadgen is the benchmark's DNS load generator: a seeded
// query stream, its own wire packer and response checker, raw
// non-blocking loopback sockets, and the closed-loop / open-loop phases
// that turn them into throughput and latency numbers.
//
// It deliberately imports nothing from the repository: the server is
// reached only through its sockets and its report-line protocol, and
// the code that checks an answer is not the code that produced it.
package loadgen

import "encoding/binary"

// Kind is the shape of one generated query, which fixes the shape of
// the only answer the checker accepts for it.
type Kind uint8

const (
	KindAECS Kind = iota // IN A for the zone with an ECS /24: one A, OPT echoing scope 24
	KindA                // IN A for the zone, no OPT: one A, no OPT
	KindTXT              // IN TXT for the zone: one TXT starting "policy="
	KindANY              // IN ANY for the zone: one A
	KindNX               // IN A for a sibling name: NXDOMAIN with the zone SOA
	KindJSON             // GET /resolve with edns_client_subnet: dns-json A answer
	NumKinds
)

// Mix is the share of each query kind in a stream; it need not sum to one.
type Mix [NumKinds]float64

const (
	typeA   = 1
	typeSOA = 6
	typeTXT = 16
	typeOPT = 41
	typeANY = 255
	classIN = 1

	optionECS = 8
	ecsBits   = 24 // every generated subnet is a /24, the server's default clamp
)

// qtype returns the question type a kind asks.
func (k Kind) qtype() uint16 {
	switch k {
	case KindTXT:
		return typeTXT
	case KindANY:
		return typeANY
	default:
		return typeA
	}
}

// appendName appends a presentation-form name ("www.site.example") in
// wire form. Labels are assumed valid (the benchmark generates them).
func appendName(dst []byte, name string) []byte {
	start := 0
	for i := 0; i <= len(name); i++ {
		if i == len(name) || name[i] == '.' {
			if i > start {
				dst = append(dst, byte(i-start))
				dst = append(dst, name[start:i]...)
			}
			start = i + 1
		}
	}
	return append(dst, 0)
}

// AppendQuery appends one standard query: header, one question, and —
// when ecs is non-nil — an OPT record carrying the RFC 7871 client
// subnet ecs[0].ecs[1].ecs[2].0/24.
func AppendQuery(dst []byte, id uint16, name string, qtype uint16, ecs *[3]byte) []byte {
	arcount := uint16(0)
	if ecs != nil {
		arcount = 1
	}
	dst = binary.BigEndian.AppendUint16(dst, id)
	dst = append(dst, 0, 0) // QR=0, opcode 0, RD=0
	dst = binary.BigEndian.AppendUint16(dst, 1)
	dst = append(dst, 0, 0, 0, 0)
	dst = binary.BigEndian.AppendUint16(dst, arcount)
	dst = appendName(dst, name)
	dst = binary.BigEndian.AppendUint16(dst, qtype)
	dst = binary.BigEndian.AppendUint16(dst, classIN)
	if ecs != nil {
		dst = append(dst, 0) // root owner
		dst = binary.BigEndian.AppendUint16(dst, typeOPT)
		dst = binary.BigEndian.AppendUint16(dst, 1232) // advertised UDP payload
		dst = append(dst, 0, 0, 0, 0)                  // extended rcode, version, flags
		dst = binary.BigEndian.AppendUint16(dst, 4+4+3)
		dst = binary.BigEndian.AppendUint16(dst, optionECS)
		dst = binary.BigEndian.AppendUint16(dst, 4+3)
		dst = append(dst, 0, 1, ecsBits, 0) // family IPv4, source /24, scope 0
		dst = append(dst, ecs[0], ecs[1], ecs[2])
	}
	return dst
}

// Fail says why a response was rejected. The zero value is "correct".
type Fail uint8

const (
	OK           Fail = iota
	FailTimeout       // no response within the timeout
	FailShort         // truncated or structurally unreadable
	FailID            // response ID is not the query's
	FailHeader        // not an authoritative, untruncated response with the expected rcode
	FailQuestion      // question section is not the query's
	FailAnswer        // wrong record count, type or class
	FailAddr          // A address outside the server set
	FailTTL           // address answer with TTL 0
	FailECS           // OPT/ECS echo missing, unexpected, or with the wrong subnet or scope
	FailHTTP          // HTTP status, framing or JSON body wrong
	NumFails
)

var failNames = [NumFails]string{"ok", "timeout", "short", "id", "header", "question", "answer", "addr", "ttl", "ecs", "http"}

func (f Fail) String() string { return failNames[f] }

// skipName returns the offset after the name at off, or -1. A
// compression pointer ends the name (its target is not followed: the
// checker never needs an answer's owner name, only where it ends).
func skipName(msg []byte, off int) int {
	for off < len(msg) {
		c := int(msg[off])
		switch {
		case c == 0:
			return off + 1
		case c&0xC0 == 0xC0:
			if off+2 > len(msg) {
				return -1
			}
			return off + 2
		case c&0xC0 != 0:
			return -1
		default:
			off += 1 + c
		}
	}
	return -1
}

// rr is one resource record located by offsets into the message.
type rr struct {
	typ, class uint16
	ttl        uint32
	data       []byte
	next       int
}

func readRR(msg []byte, off int) (rr, bool) {
	off = skipName(msg, off)
	if off < 0 || off+10 > len(msg) {
		return rr{}, false
	}
	r := rr{
		typ:   binary.BigEndian.Uint16(msg[off:]),
		class: binary.BigEndian.Uint16(msg[off+2:]),
		ttl:   binary.BigEndian.Uint32(msg[off+4:]),
	}
	n := int(binary.BigEndian.Uint16(msg[off+8:]))
	off += 10
	if off+n > len(msg) {
		return rr{}, false
	}
	r.data = msg[off : off+n]
	r.next = off + n
	return r, true
}

// Servers is the set of backend addresses an A answer may name.
type Servers map[[4]byte]bool

// Check verifies resp against the query that asked for it: query is
// the wire form that was sent, kind its shape, subnet the /24 it
// carried (KindAECS only). It reads the response by offsets only.
func Check(resp, query []byte, kind Kind, subnet [3]byte, servers Servers) Fail {
	if len(resp) < 12 || len(query) < 12 {
		return FailShort
	}
	if resp[0] != query[0] || resp[1] != query[1] {
		return FailID
	}
	wantRcode := byte(0)
	if kind == KindNX {
		wantRcode = 3
	}
	// QR=1, opcode 0, AA=1, TC=0; RD echoes the query's 0; rcode as expected.
	if resp[2]&0xFE != 0x84 || resp[3]&0x0F != wantRcode {
		return FailHeader
	}
	qd := binary.BigEndian.Uint16(resp[4:])
	an := binary.BigEndian.Uint16(resp[6:])
	ns := binary.BigEndian.Uint16(resp[8:])
	ar := binary.BigEndian.Uint16(resp[10:])
	qend := skipName(query, 12)
	if qend < 0 || qend+4 > len(query) {
		return FailShort
	}
	qend += 4
	if qd != 1 || len(resp) < qend || string(resp[12:qend]) != string(query[12:qend]) {
		return FailQuestion
	}
	off := qend
	switch kind {
	case KindNX:
		if an != 0 || ns != 1 {
			return FailAnswer
		}
		soa, ok := readRR(resp, off)
		if !ok {
			return FailShort
		}
		if soa.typ != typeSOA || soa.class != classIN {
			return FailAnswer
		}
		off = soa.next
	case KindTXT:
		if an != 1 || ns != 0 {
			return FailAnswer
		}
		txt, ok := readRR(resp, off)
		if !ok {
			return FailShort
		}
		const want = "policy="
		if txt.typ != typeTXT || txt.class != classIN || len(txt.data) < 1+len(want) ||
			string(txt.data[1:1+len(want)]) != want {
			return FailAnswer
		}
		off = txt.next
	default:
		if an != 1 || ns != 0 {
			return FailAnswer
		}
		a, ok := readRR(resp, off)
		if !ok {
			return FailShort
		}
		if a.typ != typeA || a.class != classIN || len(a.data) != 4 {
			return FailAnswer
		}
		if !servers[[4]byte(a.data)] {
			return FailAddr
		}
		if a.ttl == 0 {
			return FailTTL
		}
		off = a.next
	}
	if kind != KindAECS {
		if ar != 0 {
			return FailECS
		}
	} else {
		if ar != 1 {
			return FailECS
		}
		opt, ok := readRR(resp, off)
		if !ok {
			return FailShort
		}
		// One option: code 8, length 7, family 1, source 24, scope 24,
		// then the three subnet octets.
		d := opt.data
		if opt.typ != typeOPT || len(d) != 11 ||
			binary.BigEndian.Uint16(d) != optionECS || binary.BigEndian.Uint16(d[2:]) != 7 ||
			d[4] != 0 || d[5] != 1 || d[6] != ecsBits || d[7] != ecsBits ||
			d[8] != subnet[0] || d[9] != subnet[1] || d[10] != subnet[2] {
			return FailECS
		}
		off = opt.next
	}
	if off != len(resp) {
		return FailShort
	}
	return OK
}
