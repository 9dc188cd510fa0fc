package dnswire

import (
	"net/netip"
	"testing"
)

// FuzzUnpack exercises the decoder against arbitrary bytes: it must
// never panic, and anything it accepts must re-encode and re-decode to
// an equivalent header.
func FuzzUnpack(f *testing.F) {
	seed := func(m *Message) {
		wire, err := m.Pack()
		if err == nil {
			f.Add(wire)
		}
	}
	seed(queryMessage(1, "example.com", TypeA))
	seed(&Message{
		Header:    Header{ID: 2, Response: true, Authoritative: true},
		Questions: []Question{{Name: "a.b.c.example.", Type: TypeA, Class: ClassIN}},
		Answers: []ResourceRecord{{
			Name: "a.b.c.example.", Type: TypeA, Class: ClassIN, TTL: 300,
			Data: A{Addr: netip.MustParseAddr("10.0.0.1")},
		}},
		Authority: []ResourceRecord{{
			Name: "example.", Type: TypeSOA, Class: ClassIN, TTL: 60,
			Data: SOA{MName: "ns.example.", RName: "root.example.", Serial: 1},
		}},
	})
	f.Add([]byte{0xC0, 0x00})
	f.Add(make([]byte, 12))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		if err != nil {
			return
		}
		// Round-trip what we accepted: repack may legitimately fail for
		// semantic reasons (e.g. empty TXT decoded from a permissive
		// path must not exist), but if it succeeds, the second decode
		// must agree on the header and section sizes.
		wire, err := m.Pack()
		if err != nil {
			return
		}
		m2, err := Unpack(wire)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		if m2.Header != m.Header {
			t.Fatalf("header changed across round trip: %+v vs %+v", m.Header, m2.Header)
		}
		if len(m2.Questions) != len(m.Questions) ||
			len(m2.Answers) != len(m.Answers) ||
			len(m2.Authority) != len(m.Authority) ||
			len(m2.Additional) != len(m.Additional) {
			t.Fatal("section sizes changed across round trip")
		}
	})
}

// FuzzUnpackName targets the name decompressor directly, the riskiest
// part of the decoder (pointer loops, truncation).
func FuzzUnpackName(f *testing.F) {
	f.Add([]byte{3, 'w', 'w', 'w', 0}, 0)
	f.Add([]byte{0xC0, 0x00}, 0)
	f.Add([]byte{1, 'a', 0xC0, 0x00}, 2)
	f.Fuzz(func(t *testing.T, data []byte, off int) {
		if off < 0 || off > len(data) {
			return
		}
		name, next, err := unpackName(data, off)
		if err != nil {
			return
		}
		if next < off && next != 0 {
			t.Fatalf("next offset %d went backwards from %d", next, off)
		}
		// Accepted names must satisfy the validator and re-encode.
		if err := validateName(name); err != nil {
			t.Fatalf("accepted invalid name %q: %v", name, err)
		}
		if _, err := packName(nil, name, make(map[string]int)); err != nil {
			t.Fatalf("accepted name %q fails to encode: %v", name, err)
		}
	})
}

// FuzzUnpackPooled differentially tests the pooled zero-alloc query
// decoder against the legacy decoder: both must accept exactly the
// same messages, and on acceptance agree on the header, the first
// question, and the extracted Client Subnet option — the fields the
// server's hot path reads. Any divergence would change the server's
// FORMERR behavior or answers depending on which decoder ran.
func FuzzUnpackPooled(f *testing.F) {
	seed := func(m *Message) {
		wire, err := m.Pack()
		if err == nil {
			f.Add(wire)
		}
	}
	seed(queryMessage(1, "www.site.example", TypeA))
	// Compression pointers: a response whose answer and authority
	// names all point back into the question.
	seed(&Message{
		Header:    Header{ID: 2, Response: true},
		Questions: []Question{{Name: "a.b.c.example.", Type: TypeA, Class: ClassIN}},
		Answers: []ResourceRecord{{
			Name: "a.b.c.example.", Type: TypeA, Class: ClassIN, TTL: 300,
			Data: A{Addr: netip.MustParseAddr("10.0.0.1")},
		}},
		Authority: []ResourceRecord{{
			Name: "example.", Type: TypeSOA, Class: ClassIN, TTL: 60,
			Data: SOA{MName: "ns.example.", RName: "root.example.", Serial: 1},
		}},
	})
	// ECS options, IPv4 and IPv6.
	ecs4 := queryMessage(3, "www.site.example", TypeA)
	_ = ecs4.SetClientSubnet(ClientSubnet{Prefix: netip.MustParsePrefix("192.0.2.0/24")}, 1232)
	seed(ecs4)
	ecs6 := queryMessage(4, "www.site.example", TypeAAAA)
	_ = ecs6.SetClientSubnet(ClientSubnet{Prefix: netip.MustParsePrefix("2001:db8::/48")}, 4096)
	seed(ecs6)
	// Raw hostile inputs: bare pointer, pointer chain, reserved label.
	f.Add([]byte{0xC0, 0x00})
	f.Add([]byte{0, 9, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 'a', 0xC0, 12, 0, 1, 0, 1})
	f.Add([]byte{0, 9, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 1, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, legacyErr := Unpack(data)
		q := GetQuery()
		defer PutQuery(q)
		pooledErr := q.UnpackQuery(data)
		if (legacyErr == nil) != (pooledErr == nil) {
			t.Fatalf("accept/reject divergence: legacy err=%v, pooled err=%v", legacyErr, pooledErr)
		}
		if legacyErr != nil {
			return
		}
		if q.Header != m.Header {
			t.Fatalf("header divergence: legacy %+v, pooled %+v", m.Header, q.Header)
		}
		if q.QDCount != len(m.Questions) {
			t.Fatalf("question count divergence: legacy %d, pooled %d", len(m.Questions), q.QDCount)
		}
		if len(m.Questions) > 0 {
			lq := m.Questions[0]
			if string(q.Name) != lq.Name || q.Type != lq.Type || q.Class != lq.Class {
				t.Fatalf("first question divergence: legacy %+v, pooled {%q %v %v}",
					lq, q.Name, q.Type, q.Class)
			}
		}
		checkQuestionSpan(t, q, data)
		ecs, ok := m.ClientSubnet()
		if q.HasECS != ok {
			t.Fatalf("ECS presence divergence: legacy %v, pooled %v", ok, q.HasECS)
		}
		if ok && (q.ECS.Prefix != ecs.Prefix || q.ECS.ScopePrefixLen != ecs.ScopePrefixLen) {
			t.Fatalf("ECS value divergence: legacy %+v, pooled %+v", ecs, q.ECS)
		}
	})
}

// FuzzParseClientSubnet targets the ECS option parser.
func FuzzParseClientSubnet(f *testing.F) {
	good, _ := (ClientSubnet{Prefix: netip.MustParsePrefix("192.0.2.0/24")}).Pack()
	f.Add(good)
	f.Add([]byte{0, 2, 48, 0, 0x20, 0x01, 0x0d, 0xb8, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		cs, err := ParseClientSubnet(data)
		if err != nil {
			return
		}
		repacked, err := cs.Pack()
		if err != nil {
			t.Fatalf("accepted ECS %v fails to pack: %v", cs, err)
		}
		cs2, err := ParseClientSubnet(repacked)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if cs2.Prefix != cs.Prefix {
			t.Fatalf("prefix changed: %v vs %v", cs.Prefix, cs2.Prefix)
		}
	})
}

// FuzzParseECSOption drives the ECS option parser with a structured
// hostile input — arbitrary family, source/scope prefix lengths and
// address payload assembled into one option TLV — and holds every
// accepted option to the RFC 7871 invariants the server relies on:
// the parsed prefix is masked, within the family's bit width, packs
// back losslessly, and survives the scoped response echo
// (EchoClientSubnet) both standalone and embedded in a full message.
func FuzzParseECSOption(f *testing.F) {
	f.Add(uint16(1), uint8(24), uint8(0), []byte{10, 1, 2})
	f.Add(uint16(2), uint8(56), uint8(48), []byte{0x20, 0x01, 0x0d, 0xb8, 0, 0, 0})
	f.Add(uint16(1), uint8(33), uint8(0), []byte{10, 1, 2, 3, 4})
	f.Add(uint16(3), uint8(8), uint8(8), []byte{10})
	f.Add(uint16(1), uint8(0), uint8(255), []byte{})
	// An IPv4-mapped address sent as family 2 is echoed as family 2.
	f.Add(uint16(2), uint8(120), uint8(0), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 10, 1, 2})
	f.Fuzz(func(t *testing.T, family uint16, srcBits, scope uint8, payload []byte) {
		data := make([]byte, 0, 4+len(payload))
		data = append(data, byte(family>>8), byte(family), srcBits, scope)
		data = append(data, payload...)
		cs, err := ParseClientSubnet(data)
		if err != nil {
			return
		}
		addr := cs.Prefix.Addr()
		if addr.Is4() && cs.Prefix.Bits() > 32 {
			t.Fatalf("accepted IPv4 prefix wider than 32 bits: %v", cs.Prefix)
		}
		if cs.Prefix != cs.Prefix.Masked() {
			t.Fatalf("accepted unmasked prefix %v", cs.Prefix)
		}
		echo := EchoClientSubnet(cs, uint8(cs.Prefix.Bits()))
		if echo.Prefix != cs.Prefix {
			t.Fatalf("echo changed the prefix: %v vs %v", echo.Prefix, cs.Prefix)
		}
		repacked, err := echo.Pack()
		if err != nil {
			t.Fatalf("accepted ECS %v fails to pack with scope: %v", cs, err)
		}
		cs2, err := ParseClientSubnet(repacked)
		if err != nil {
			t.Fatalf("re-parse of scoped echo failed: %v", err)
		}
		if cs2.Prefix != cs.Prefix || cs2.ScopePrefixLen != uint8(cs.Prefix.Bits()) {
			t.Fatalf("scoped echo round-trip drifted: %+v vs %+v", cs2, echo)
		}
		// The same option must survive a full message round trip.
		m := queryMessage(7, "example.com", TypeA)
		if err := m.SetClientSubnet(echo, MaxUDPPayload); err != nil {
			t.Fatalf("SetClientSubnet rejected accepted ECS: %v", err)
		}
		wire, err := m.Pack()
		if err != nil {
			t.Fatalf("pack with ECS failed: %v", err)
		}
		back, err := Unpack(wire)
		if err != nil {
			t.Fatalf("unpack with ECS failed: %v", err)
		}
		got, ok := back.ClientSubnet()
		if !ok || got.Prefix != cs.Prefix || got.ScopePrefixLen != echo.ScopePrefixLen {
			t.Fatalf("message round trip lost the scoped option: %+v ok=%v", got, ok)
		}
	})
}
