package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// cmapPool recycles name-compression maps across AppendPack calls, so
// repeated packing with recycled buffers allocates nothing: map keys
// are substrings of the message's own names and are cleared before the
// map returns to the pool.
var cmapPool = sync.Pool{
	New: func() any { return make(map[string]int, 8) },
}

// Limits guarding against hostile messages.
const (
	headerLen = 12
	// maxRecords bounds any single section while decoding.
	maxRecords = 4096
	// MaxUDPPayload is the classic 512-byte UDP message limit
	// (RFC 1035 §4.2.1); the server truncates above it.
	MaxUDPPayload = 512
)

// ErrTooManyRecords reports a section count over the decoder's bound.
var ErrTooManyRecords = errors.New("dnswire: too many records")

// header flag bit masks within the 16-bit flags word.
const (
	flagQR = 1 << 15
	flagAA = 1 << 10
	flagTC = 1 << 9
	flagRD = 1 << 8
	flagRA = 1 << 7
)

// AppendHeader appends the 12-byte message header with the given
// section counts. It is the first step of AppendPack, exported for
// callers that write a fixed response shape without building a Message
// (the server's address answers and header-only error replies).
func AppendHeader(dst []byte, h Header, qd, an, ns, ar int) []byte {
	flags := uint16(h.OpCode&0xF)<<11 | uint16(h.RCode&0xF)
	if h.Response {
		flags |= flagQR
	}
	if h.Authoritative {
		flags |= flagAA
	}
	if h.Truncated {
		flags |= flagTC
	}
	if h.RecursionDesired {
		flags |= flagRD
	}
	if h.RecursionAvailable {
		flags |= flagRA
	}
	dst = binary.BigEndian.AppendUint16(dst, h.ID)
	dst = binary.BigEndian.AppendUint16(dst, flags)
	dst = binary.BigEndian.AppendUint16(dst, uint16(qd))
	dst = binary.BigEndian.AppendUint16(dst, uint16(an))
	dst = binary.BigEndian.AppendUint16(dst, uint16(ns))
	return binary.BigEndian.AppendUint16(dst, uint16(ar))
}

// Pack encodes the message with name compression.
func (m *Message) Pack() ([]byte, error) {
	return m.AppendPack(make([]byte, 0, 128))
}

// AppendPack encodes the message into dst, reusing its capacity, and
// returns the extended slice. It is the allocation-free variant of
// Pack for callers that recycle buffers (the server's query hot path
// passes pooled buffers as dst[:0]). Name-compression pointer offsets
// are computed from the start of dst, so dst must be positioned at the
// start of the DNS message: pass a zero-length slice.
func (m *Message) AppendPack(dst []byte) ([]byte, error) {
	buf := AppendHeader(dst, m.Header, len(m.Questions), len(m.Answers), len(m.Authority), len(m.Additional))

	cmap := cmapPool.Get().(map[string]int)
	defer func() {
		clear(cmap)
		cmapPool.Put(cmap)
	}()
	var err error
	for _, q := range m.Questions {
		buf, err = packName(buf, q.Name, cmap)
		if err != nil {
			return nil, fmt.Errorf("question %q: %w", q.Name, err)
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	}
	for _, section := range [][]ResourceRecord{m.Answers, m.Authority, m.Additional} {
		for _, rr := range section {
			buf, err = packRR(buf, rr, cmap)
			if err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

func packRR(buf []byte, rr ResourceRecord, cmap map[string]int) ([]byte, error) {
	if rr.Data == nil {
		return nil, fmt.Errorf("dnswire: record %q has no data", rr.Name)
	}
	var err error
	buf, err = packName(buf, rr.Name, cmap)
	if err != nil {
		return nil, fmt.Errorf("record %q: %w", rr.Name, err)
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Type))
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Class))
	buf = binary.BigEndian.AppendUint32(buf, rr.TTL)
	// Reserve the RDLENGTH slot, pack, then patch the length.
	lenAt := len(buf)
	buf = append(buf, 0, 0)
	buf, err = rr.Data.packData(buf, cmap)
	if err != nil {
		return nil, fmt.Errorf("record %q: %w", rr.Name, err)
	}
	rdlen := len(buf) - lenAt - 2
	if rdlen > 0xFFFF {
		return nil, fmt.Errorf("dnswire: record %q RDATA too large", rr.Name)
	}
	binary.BigEndian.PutUint16(buf[lenAt:], uint16(rdlen))
	return buf, nil
}

// Unpack decodes a wire-format message.
func Unpack(msg []byte) (*Message, error) {
	if len(msg) < headerLen {
		return nil, ErrTruncatedMessage
	}
	var m Message
	m.Header.ID = binary.BigEndian.Uint16(msg[0:])
	flags := binary.BigEndian.Uint16(msg[2:])
	m.Header.Response = flags&flagQR != 0
	m.Header.OpCode = OpCode(flags >> 11 & 0xF)
	m.Header.Authoritative = flags&flagAA != 0
	m.Header.Truncated = flags&flagTC != 0
	m.Header.RecursionDesired = flags&flagRD != 0
	m.Header.RecursionAvailable = flags&flagRA != 0
	m.Header.RCode = RCode(flags & 0xF)
	qd := int(binary.BigEndian.Uint16(msg[4:]))
	an := int(binary.BigEndian.Uint16(msg[6:]))
	ns := int(binary.BigEndian.Uint16(msg[8:]))
	ar := int(binary.BigEndian.Uint16(msg[10:]))
	if qd > maxRecords || an > maxRecords || ns > maxRecords || ar > maxRecords {
		return nil, ErrTooManyRecords
	}

	off := headerLen
	var err error
	for i := 0; i < qd; i++ {
		var q Question
		q.Name, off, err = unpackName(msg, off)
		if err != nil {
			return nil, fmt.Errorf("question %d: %w", i, err)
		}
		if off+4 > len(msg) {
			return nil, ErrTruncatedMessage
		}
		q.Type = Type(binary.BigEndian.Uint16(msg[off:]))
		q.Class = Class(binary.BigEndian.Uint16(msg[off+2:]))
		off += 4
		m.Questions = append(m.Questions, q)
	}
	for _, sec := range []struct {
		n   int
		dst *[]ResourceRecord
	}{{an, &m.Answers}, {ns, &m.Authority}, {ar, &m.Additional}} {
		for i := 0; i < sec.n; i++ {
			var rr ResourceRecord
			rr, off, err = unpackRR(msg, off)
			if err != nil {
				return nil, err
			}
			*sec.dst = append(*sec.dst, rr)
		}
	}
	return &m, nil
}

func unpackRR(msg []byte, off int) (ResourceRecord, int, error) {
	var rr ResourceRecord
	var err error
	rr.Name, off, err = unpackName(msg, off)
	if err != nil {
		return rr, 0, err
	}
	if off+10 > len(msg) {
		return rr, 0, ErrTruncatedMessage
	}
	rr.Type = Type(binary.BigEndian.Uint16(msg[off:]))
	rr.Class = Class(binary.BigEndian.Uint16(msg[off+2:]))
	rr.TTL = binary.BigEndian.Uint32(msg[off+4:])
	rdlen := int(binary.BigEndian.Uint16(msg[off+8:]))
	off += 10
	if off+rdlen > len(msg) {
		return rr, 0, ErrTruncatedMessage
	}
	rr.Data, err = unpackRData(msg, off, rdlen, rr.Type)
	if err != nil {
		return rr, 0, fmt.Errorf("record %q: %w", rr.Name, err)
	}
	return rr, off + rdlen, nil
}
