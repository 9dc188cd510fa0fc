package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// EDNS(0) support (RFC 6891) and the Client Subnet option (RFC 7871).
//
// The paper predates EDNS, but its central problem — identifying the
// *client domain* behind an address request when the DNS only sees the
// recursive resolver — is solved today by the Client Subnet option:
// resolvers attach the querying client's network prefix. The server
// side (internal/dnsserver) prefers an ECS prefix over the transport
// source address when classifying the originating domain, which is how
// a modern deployment of the paper's algorithms would obtain the
// per-domain signal.

// TypeOPT is the EDNS(0) pseudo-record type.
const TypeOPT Type = 41

// EDNS option codes.
const (
	// OptionClientSubnet is the RFC 7871 Client Subnet option code.
	OptionClientSubnet uint16 = 8
)

// ErrBadClientSubnet reports a malformed ECS option.
var ErrBadClientSubnet = errors.New("dnswire: bad client subnet option")

// OPT is the EDNS(0) pseudo-record payload: a list of (code, data)
// options. The record's Class carries the sender's UDP payload size
// and the TTL field carries extended RCODE/version/flags; helpers on
// Message manage those fields.
type OPT struct {
	Options []EDNSOption
}

// EDNSOption is one EDNS option TLV.
type EDNSOption struct {
	Code uint16
	Data []byte
}

// RType implements RData.
func (OPT) RType() Type { return TypeOPT }

func (o OPT) packData(buf []byte, _ map[string]int) ([]byte, error) {
	for _, opt := range o.Options {
		if len(opt.Data) > 0xFFFF {
			return nil, fmt.Errorf("dnswire: EDNS option %d data too large", opt.Code)
		}
		buf = binary.BigEndian.AppendUint16(buf, opt.Code)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(opt.Data)))
		buf = append(buf, opt.Data...)
	}
	return buf, nil
}

// unpackOPT decodes the option list of an OPT record.
func unpackOPT(data []byte) (OPT, error) {
	var o OPT
	off := 0
	for off < len(data) {
		if off+4 > len(data) {
			return o, ErrTruncatedMessage
		}
		code := binary.BigEndian.Uint16(data[off:])
		n := int(binary.BigEndian.Uint16(data[off+2:]))
		off += 4
		if off+n > len(data) {
			return o, ErrTruncatedMessage
		}
		payload := make([]byte, n)
		copy(payload, data[off:off+n])
		o.Options = append(o.Options, EDNSOption{Code: code, Data: payload})
		off += n
	}
	return o, nil
}

// ClientSubnet is the RFC 7871 option content: the client's network
// prefix as seen by the recursive resolver.
type ClientSubnet struct {
	// Prefix is the client network (address + source prefix length).
	Prefix netip.Prefix
	// ScopePrefixLen is the prefix length the authority's answer is
	// valid for (0 in queries).
	ScopePrefixLen uint8
}

// families per RFC 7871 §6 (address family numbers).
const (
	ecsFamilyIPv4 = 1
	ecsFamilyIPv6 = 2
)

// Pack encodes the option payload.
func (cs ClientSubnet) Pack() ([]byte, error) {
	return cs.AppendPack(make([]byte, 0, 4+16))
}

// AppendPack appends the option payload to dst: the allocation-free
// variant of Pack for callers that recycle buffers.
func (cs ClientSubnet) AppendPack(dst []byte) ([]byte, error) {
	if !cs.Prefix.IsValid() {
		return nil, ErrBadClientSubnet
	}
	addr := cs.Prefix.Addr()
	bits := cs.Prefix.Bits()
	// Address bytes: only ceil(bits/8) octets are sent, with unused
	// trailing bits zeroed (the Prefix is already masked). The family
	// follows the address width, so an IPv4-mapped IPv6 prefix a query
	// sent as family 2 is echoed as family 2.
	n := (bits + 7) / 8
	if addr.Is4() {
		b := addr.As4()
		dst = append(dst, 0, ecsFamilyIPv4, byte(bits), cs.ScopePrefixLen)
		return append(dst, b[:n]...), nil
	}
	b := addr.As16()
	dst = append(dst, 0, ecsFamilyIPv6, byte(bits), cs.ScopePrefixLen)
	return append(dst, b[:n]...), nil
}

// ParseClientSubnet decodes an ECS option payload.
func ParseClientSubnet(data []byte) (ClientSubnet, error) {
	var cs ClientSubnet
	if len(data) < 4 {
		return cs, ErrBadClientSubnet
	}
	family := binary.BigEndian.Uint16(data[0:])
	bits := int(data[2])
	cs.ScopePrefixLen = data[3]
	payload := data[4:]
	n := (bits + 7) / 8
	if len(payload) < n {
		return cs, ErrBadClientSubnet
	}
	var addr netip.Addr
	switch family {
	case ecsFamilyIPv4:
		if bits > 32 {
			return cs, ErrBadClientSubnet
		}
		var b [4]byte
		copy(b[:], payload[:n])
		addr = netip.AddrFrom4(b)
	case ecsFamilyIPv6:
		if bits > 128 {
			return cs, ErrBadClientSubnet
		}
		var b [16]byte
		copy(b[:], payload[:n])
		addr = netip.AddrFrom16(b)
	default:
		return cs, fmt.Errorf("%w: family %d", ErrBadClientSubnet, family)
	}
	p, err := addr.Prefix(bits)
	if err != nil {
		return cs, fmt.Errorf("%w: %v", ErrBadClientSubnet, err)
	}
	cs.Prefix = p
	return cs, nil
}

// EchoClientSubnet builds the response-side ECS option for a query's
// option per RFC 7871 §7.2.2: FAMILY, SOURCE PREFIX-LENGTH and ADDRESS
// are echoed unchanged, and SCOPE PREFIX-LENGTH announces how broadly
// the answer may be reused — the honoured source prefix when the
// answer was tailored to the client's subnet, 0 when it was not.
func EchoClientSubnet(query ClientSubnet, scope uint8) ClientSubnet {
	query.ScopePrefixLen = scope
	return query
}

// SetClientSubnet attaches (or replaces) an EDNS OPT record carrying
// the given client subnet to the message's additional section.
// udpPayload advertises the sender's reassembly size (RFC 6891);
// values below 512 are raised to 512.
func (m *Message) SetClientSubnet(cs ClientSubnet, udpPayload uint16) error {
	data, err := cs.Pack()
	if err != nil {
		return err
	}
	if udpPayload < MaxUDPPayload {
		udpPayload = MaxUDPPayload
	}
	opt := ResourceRecord{
		Name:  ".",
		Type:  TypeOPT,
		Class: Class(udpPayload),
		Data:  OPT{Options: []EDNSOption{{Code: OptionClientSubnet, Data: data}}},
	}
	// Replace an existing OPT record if present (only one is allowed).
	for i, rr := range m.Additional {
		if rr.Type == TypeOPT {
			m.Additional[i] = opt
			return nil
		}
	}
	m.Additional = append(m.Additional, opt)
	return nil
}

// ClientSubnet extracts the ECS option from the message's OPT record.
// ok is false when the message carries none.
func (m *Message) ClientSubnet() (cs ClientSubnet, ok bool) {
	for _, rr := range m.Additional {
		opt, isOpt := rr.Data.(OPT)
		if !isOpt {
			continue
		}
		for _, o := range opt.Options {
			if o.Code != OptionClientSubnet {
				continue
			}
			parsed, err := ParseClientSubnet(o.Data)
			if err != nil {
				return ClientSubnet{}, false
			}
			return parsed, true
		}
	}
	return ClientSubnet{}, false
}
