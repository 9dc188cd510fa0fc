package dnswire

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Pooled zero-allocation query decoding.
//
// Unpack builds a full *Message — name strings, per-section record
// slices, typed RDATA — which costs ~20 heap allocations per query.
// The server's hot path only ever needs the header, the first
// question, and the Client Subnet option, so UnpackQuery decodes
// exactly those into a caller-owned (pooled, reusable) Query with no
// per-query allocations: names land in fixed buffers inside the Query
// and every other record is validated and skipped in place.
//
// UnpackQuery is a strict drop-in for Unpack on the query path: it
// accepts a message if and only if Unpack accepts it, and agrees with
// Unpack on the header, the first question, and the extracted ECS
// option (FuzzUnpackPooled and TestUnpackQueryMatchesUnpack enforce
// the equivalence differentially).

// Query is the decoded view of one request, sized for the server's
// hot path. Name slices point into buffers inside the Query, so a
// Query must not be reused while any field from the previous decode
// is still referenced.
type Query struct {
	Header Header
	// QDCount is the question-section count; the server answers only
	// messages with at least one question.
	QDCount int
	// Name is the first question's canonical name (lower-case, exactly
	// one trailing dot, "." for the root), valid until the next
	// UnpackQuery on this Query.
	Name  []byte
	Type  Type
	Class Class
	// Question is the first question entry exactly as it arrived (name,
	// type and class), aliasing the decoded message, so a response can
	// echo the sender's spelling — resolvers that randomize the case of
	// the name (0x20 hardening) discard answers whose question does not
	// match byte for byte. Nil when the name used compression, which
	// cannot be copied to another message as is.
	Question []byte
	// HasECS reports whether the additional section carried a
	// well-formed RFC 7871 Client Subnet option; ECS is its content.
	HasECS bool
	ECS    ClientSubnet

	// ecsDone marks that an ECS option was already encountered (well
	// formed or not); later OPT records no longer matter, mirroring
	// (*Message).ClientSubnet's early return.
	ecsDone bool

	// nameBuf backs Name; scratch backs the validation-only scans of
	// every other name in the message. Presentation names are at most
	// maxNameLen-1 bytes, so maxNameLen is enough for both.
	nameBuf [maxNameLen]byte
	scratch [maxNameLen]byte
}

// queryPool recycles Query structs across requests; GetQuery/PutQuery
// are the server's per-datagram bracket.
var queryPool = sync.Pool{New: func() any { return new(Query) }}

// GetQuery returns a pooled Query for UnpackQuery.
func GetQuery() *Query { return queryPool.Get().(*Query) }

// PutQuery returns a Query to the pool. The caller must not retain
// any slice obtained from it.
func PutQuery(q *Query) { queryPool.Put(q) }

// reset clears the per-message fields (the backing arrays need no
// clearing; Name is re-sliced on every decode).
func (q *Query) reset() {
	q.Header = Header{}
	q.QDCount = 0
	q.Name = nil
	q.Type = 0
	q.Class = 0
	q.Question = nil
	q.HasECS = false
	q.ECS = ClientSubnet{}
	q.ecsDone = false
}

// UnpackQuery decodes a wire-format message into q without heap
// allocation. It validates the entire message with the same rules as
// Unpack — the server's FORMERR behavior must not depend on which
// decoder ran — but only materializes the header, the first question,
// and the first Client Subnet option.
func (q *Query) UnpackQuery(msg []byte) error {
	q.reset()
	if len(msg) < headerLen {
		return ErrTruncatedMessage
	}
	q.Header.ID = binary.BigEndian.Uint16(msg[0:])
	flags := binary.BigEndian.Uint16(msg[2:])
	q.Header.Response = flags&flagQR != 0
	q.Header.OpCode = OpCode(flags >> 11 & 0xF)
	q.Header.Authoritative = flags&flagAA != 0
	q.Header.Truncated = flags&flagTC != 0
	q.Header.RecursionDesired = flags&flagRD != 0
	q.Header.RecursionAvailable = flags&flagRA != 0
	q.Header.RCode = RCode(flags & 0xF)
	qd := int(binary.BigEndian.Uint16(msg[4:]))
	an := int(binary.BigEndian.Uint16(msg[6:]))
	ns := int(binary.BigEndian.Uint16(msg[8:]))
	ar := int(binary.BigEndian.Uint16(msg[10:]))
	if qd > maxRecords || an > maxRecords || ns > maxRecords || ar > maxRecords {
		return ErrTooManyRecords
	}
	q.QDCount = qd

	off := headerLen
	for i := 0; i < qd; i++ {
		dst := q.scratch[:]
		if i == 0 {
			dst = q.nameBuf[:]
		}
		n, next, compressed, err := scanName(msg, off, dst)
		if err != nil {
			return fmt.Errorf("question %d: %w", i, err)
		}
		if next+4 > len(msg) {
			return ErrTruncatedMessage
		}
		if i == 0 {
			q.Name = q.nameBuf[:n]
			q.Type = Type(binary.BigEndian.Uint16(msg[next:]))
			q.Class = Class(binary.BigEndian.Uint16(msg[next+2:]))
			if !compressed {
				q.Question = msg[off : next+4]
			}
		}
		off = next + 4
	}
	// The answer and authority sections are validated and skipped; the
	// additional section is additionally scanned for the first OPT
	// record carrying a Client Subnet option, mirroring
	// (*Message).ClientSubnet's "first OPT, first ECS option" rule.
	var err error
	for _, sec := range [3]struct {
		n   int
		ecs bool
	}{{an, false}, {ns, false}, {ar, true}} {
		for i := 0; i < sec.n; i++ {
			off, err = q.scanRR(msg, off, sec.ecs)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// scanRR validates one resource record starting at off and returns
// the offset past it. When ecs is true (additional section) and no
// OPT record has resolved the ECS question yet, OPT records are
// scanned for the Client Subnet option.
func (q *Query) scanRR(msg []byte, off int, ecs bool) (int, error) {
	_, off, _, err := scanName(msg, off, q.scratch[:])
	if err != nil {
		return 0, err
	}
	if off+10 > len(msg) {
		return 0, ErrTruncatedMessage
	}
	typ := Type(binary.BigEndian.Uint16(msg[off:]))
	rdlen := int(binary.BigEndian.Uint16(msg[off+8:]))
	off += 10
	if off+rdlen > len(msg) {
		return 0, ErrTruncatedMessage
	}
	if err := q.validRData(msg, off, rdlen, typ); err != nil {
		return 0, err
	}
	if ecs && typ == TypeOPT && !q.ecsDone {
		q.ecsDone = q.ecsResolved(msg, off, rdlen)
	}
	return off + rdlen, nil
}

// ecsResolved scans one OPT RDATA for the first Client Subnet option.
// It returns true when an ECS option was found — whether it parsed
// (HasECS set) or not (ECS absent for this message, matching
// ClientSubnet's early false return) — so the caller stops consulting
// further OPT records. The TLV structure is already validated by
// validRData.
func (q *Query) ecsResolved(msg []byte, off, n int) bool {
	end := off + n
	for off < end {
		code := binary.BigEndian.Uint16(msg[off:])
		l := int(binary.BigEndian.Uint16(msg[off+2:]))
		off += 4
		if code == OptionClientSubnet {
			cs, err := ParseClientSubnet(msg[off : off+l])
			if err == nil {
				q.HasECS = true
				q.ECS = cs
			}
			return true
		}
		off += l
	}
	return false
}

// validRData applies unpackRData's validation for the given type
// without materializing the payload.
func (q *Query) validRData(msg []byte, off, n int, typ Type) error {
	switch typ {
	case TypeA:
		if n != 4 {
			return fmt.Errorf("dnswire: A RDATA length %d, want 4", n)
		}
	case TypeAAAA:
		if n != 16 {
			return fmt.Errorf("dnswire: AAAA RDATA length %d, want 16", n)
		}
	case TypeCNAME, TypeNS, TypePTR:
		if _, _, _, err := scanName(msg, off, q.scratch[:]); err != nil {
			return err
		}
	case TypeTXT:
		end := off + n
		count := 0
		for off < end {
			l := int(msg[off])
			off++
			if off+l > end {
				return ErrTruncatedMessage
			}
			off += l
			count++
		}
		if count == 0 {
			return errEmptyTXT
		}
	case TypeSOA:
		_, next, _, err := scanName(msg, off, q.scratch[:])
		if err != nil {
			return err
		}
		_, next, _, err = scanName(msg, next, q.scratch[:])
		if err != nil {
			return err
		}
		if next+20 > len(msg) || next+20 > off+n {
			return ErrTruncatedMessage
		}
	case TypeOPT:
		end := off + n
		for off < end {
			if off+4 > end {
				return ErrTruncatedMessage
			}
			l := int(binary.BigEndian.Uint16(msg[off+2:]))
			off += 4
			if off+l > end {
				return ErrTruncatedMessage
			}
			off += l
		}
	}
	return nil
}

// errEmptyTXT mirrors unpackRData's empty-TXT rejection.
var errEmptyTXT = fmt.Errorf("dnswire: empty TXT RDATA")

// scanName decodes a possibly compressed name starting at off into
// dst (which must have room for maxNameLen bytes), lower-cased and in
// canonical presentation form with a trailing dot ("." for the root).
// It returns the number of bytes written, the offset just past the
// name in the original byte stream and whether the name used a
// compression pointer, applying exactly unpackName's
// validation: truncation, reserved label types, pointer loops and
// forward pointers, and the 255-octet name bound. When the name
// overflows the bound, scanning continues without writing so that
// truncation or loop errors take precedence, as they do in unpackName
// (which validates the length only at the terminating label).
func scanName(msg []byte, off int, dst []byte) (n, next int, jumped bool, err error) {
	over := false
	next = off
	jumps := 0
	for {
		if off >= len(msg) {
			return 0, 0, false, ErrTruncatedMessage
		}
		b := msg[off]
		switch {
		case b == 0:
			if !jumped {
				next = off + 1
			}
			if over {
				return 0, 0, false, ErrNameTooLong
			}
			if n == 0 {
				dst[0] = '.'
				n = 1
			}
			return n, next, jumped, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return 0, 0, false, ErrTruncatedMessage
			}
			ptr := int(b&0x3F)<<8 | int(msg[off+1])
			if !jumped {
				next = off + 2
				jumped = true
			}
			jumps++
			if jumps > maxPointerJumps {
				return 0, 0, false, ErrPointerLoop
			}
			if ptr >= off {
				return 0, 0, false, ErrPointerLoop
			}
			off = ptr
		case b&0xC0 != 0:
			return 0, 0, false, fmt.Errorf("%w: reserved label type 0x%02x", ErrBadName, b&0xC0)
		default:
			l := int(b)
			if off+1+l > len(msg) {
				return 0, 0, false, ErrTruncatedMessage
			}
			// The presentation form "a.b." is one byte shorter than the
			// wire form's 255-octet bound (the root byte), so the name
			// fits the bound iff it fits maxNameLen-1 presentation bytes.
			if !over && n+l+1 > maxNameLen-1 {
				over = true
			}
			if !over {
				for i := 0; i < l; i++ {
					c := msg[off+1+i]
					if 'A' <= c && c <= 'Z' {
						c += 'a' - 'A'
					}
					dst[n] = c
					n++
				}
				dst[n] = '.'
				n++
			}
			off += 1 + l
			if !jumped {
				next = off
			}
		}
	}
}
