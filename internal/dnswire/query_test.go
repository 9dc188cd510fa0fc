package dnswire

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
)

// diffQuery asserts UnpackQuery and Unpack agree on one message:
// same accept/reject outcome, and on accept the same header, first
// question, and ECS extraction.
func diffQuery(t *testing.T, wire []byte) {
	t.Helper()
	m, legacyErr := Unpack(wire)
	q := GetQuery()
	defer PutQuery(q)
	pooledErr := q.UnpackQuery(wire)
	if (legacyErr == nil) != (pooledErr == nil) {
		t.Fatalf("decoder disagreement: legacy err=%v, pooled err=%v (wire %x)", legacyErr, pooledErr, wire)
	}
	if legacyErr != nil {
		return
	}
	if q.Header != m.Header {
		t.Fatalf("header mismatch: legacy %+v, pooled %+v", m.Header, q.Header)
	}
	if q.QDCount != len(m.Questions) {
		t.Fatalf("question count mismatch: legacy %d, pooled %d", len(m.Questions), q.QDCount)
	}
	if len(m.Questions) > 0 {
		lq := m.Questions[0]
		if string(q.Name) != lq.Name || q.Type != lq.Type || q.Class != lq.Class {
			t.Fatalf("first question mismatch: legacy %+v, pooled {%q %v %v}", lq, q.Name, q.Type, q.Class)
		}
	}
	checkQuestionSpan(t, q, wire)
	ecs, ok := m.ClientSubnet()
	if q.HasECS != ok {
		t.Fatalf("ECS presence mismatch: legacy %v, pooled %v", ok, q.HasECS)
	}
	if ok && (q.ECS.Prefix != ecs.Prefix || q.ECS.ScopePrefixLen != ecs.ScopePrefixLen) {
		t.Fatalf("ECS mismatch: legacy %+v, pooled %+v", ecs, q.ECS)
	}
}

// checkQuestionSpan holds Query.Question, after an accepted decode of
// wire, to its contract: nil exactly when there is no first question or
// its name is compressed; otherwise that question's own wire bytes,
// which standing alone decode to Name, Type and Class.
func checkQuestionSpan(t *testing.T, q *Query, wire []byte) {
	t.Helper()
	compressed := false
	if q.QDCount > 0 {
		off := headerLen
		for wire[off] != 0 && wire[off]&0xC0 == 0 {
			off += 1 + int(wire[off])
		}
		compressed = wire[off] != 0
	}
	if q.QDCount == 0 || compressed {
		if q.Question != nil {
			t.Fatalf("Question = %x for %d questions, compressed %v; want nil", q.Question, q.QDCount, compressed)
		}
		return
	}
	if !bytes.HasPrefix(wire[headerLen:], q.Question) || len(q.Question) < 5 {
		t.Fatalf("Question %x is not the first question of %x", q.Question, wire)
	}
	name, next, err := unpackName(q.Question, 0)
	if err != nil || next != len(q.Question)-4 || name != string(q.Name) {
		t.Fatalf("Question %x decodes to %q, %d, %v; want %q and 4 bytes left", q.Question, name, next, err, q.Name)
	}
	if Type(binary.BigEndian.Uint16(q.Question[next:])) != q.Type || Class(binary.BigEndian.Uint16(q.Question[next+2:])) != q.Class {
		t.Fatalf("Question %x does not end in type %v class %v", q.Question, q.Type, q.Class)
	}
}

func mustPackMsg(t *testing.T, m *Message) []byte {
	t.Helper()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func TestUnpackQueryMatchesUnpack(t *testing.T) {
	simple := mustPackMsg(t, queryMessage(7, "www.site.example", TypeA))
	withECS := queryMessage(8, "WWW.Site.Example", TypeA)
	if err := withECS.SetClientSubnet(ClientSubnet{
		Prefix: netip.MustParsePrefix("192.0.2.0/24"),
	}, 1232); err != nil {
		t.Fatal(err)
	}
	withECS6 := queryMessage(9, "www.site.example", TypeANY)
	if err := withECS6.SetClientSubnet(ClientSubnet{
		Prefix:         netip.MustParsePrefix("2001:db8::/48"),
		ScopePrefixLen: 0,
	}, 4096); err != nil {
		t.Fatal(err)
	}
	response := &Message{
		Header:    Header{ID: 3, Response: true, Authoritative: true, RecursionDesired: true},
		Questions: []Question{{Name: "a.b.example.", Type: TypeA, Class: ClassIN}},
		Answers: []ResourceRecord{{
			Name: "a.b.example.", Type: TypeA, Class: ClassIN, TTL: 30,
			Data: A{Addr: netip.MustParseAddr("10.0.0.9")},
		}},
		Authority: []ResourceRecord{{
			Name: "example.", Type: TypeSOA, Class: ClassIN, TTL: 60,
			Data: SOA{MName: "ns.example.", RName: "root.example.", Serial: 5},
		}},
		Additional: []ResourceRecord{{
			Name: "x.example.", Type: TypeTXT, Class: ClassIN, TTL: 1,
			Data: TXT{Strings: []string{"hello"}},
		}},
	}
	multiQ := &Message{
		Header: Header{ID: 4},
		Questions: []Question{
			{Name: "one.example.", Type: TypeA, Class: ClassIN},
			{Name: "two.example.", Type: TypeAAAA, Class: ClassIN},
		},
	}
	cases := map[string][]byte{
		"simple A query":        simple,
		"mixed-case ECS v4":     mustPackMsg(t, withECS),
		"ECS v6 ANY":            mustPackMsg(t, withECS6),
		"full response":         mustPackMsg(t, response),
		"two questions":         mustPackMsg(t, multiQ),
		"root name query":       mustPackMsg(t, queryMessage(5, ".", TypeNS)),
		"empty message":         make([]byte, headerLen),
		"short header":          {0, 1, 2},
		"truncated question":    simple[:len(simple)-3],
		"compression pointer":   {0xC0, 0x00},
		"counts without bodies": {0, 1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0},
	}
	// Hostile names: a forward pointer, a pointer loop, a reserved
	// label type, and an over-long compression chain.
	hdr := func(qd uint16) []byte {
		b := make([]byte, headerLen)
		binary.BigEndian.PutUint16(b[4:], qd)
		return b
	}
	fwd := append(hdr(1), 0xC0, 0x20, 0, 1, 0, 1)
	cases["forward pointer"] = fwd
	loop := append(hdr(1), 3, 'a', 'b', 'c', 0xC0, 12, 0, 1, 0, 1)
	cases["self-referential chain"] = loop
	reserved := append(hdr(1), 0x80, 0, 0, 1, 0, 1)
	cases["reserved label type"] = reserved
	// A name over 255 octets via repeated 63-byte labels.
	long := hdr(1)
	for i := 0; i < 5; i++ {
		long = append(long, 63)
		long = append(long, bytes.Repeat([]byte{'a'}, 63)...)
	}
	long = append(long, 0, 0, 1, 0, 1)
	cases["over-long name"] = long
	// Bad ECS payload inside an otherwise valid OPT: family 9.
	badECS := queryMessage(6, "www.site.example", TypeA)
	wire := mustPackMsg(t, badECS)
	// Append an OPT RR by hand: root name, TypeOPT, class 512, TTL 0,
	// one option (code 8, 4 bytes of junk with an unknown family).
	wire = append(wire, 0, 0, 41, 2, 0, 0, 0, 0, 0, 0, 8, 0, 8, 0, 4, 0, 9, 24, 0)
	binary.BigEndian.PutUint16(wire[10:], 1) // ARCOUNT = 1
	cases["malformed ECS option"] = wire

	// Question spans: a name in the sender's own mixed case, and one
	// compressed into the header (ID 0x0161 reads as the label "a",
	// the zero flags as the root).
	mixed := append([]byte(nil), simple...)
	mixed[headerLen+1], mixed[headerLen+6] = 'W', 'I'
	cases["mixed-case wire name"] = mixed
	inHeader := append(hdr(1), 0xC0, 0x00, 0, 1, 0, 1)
	inHeader[0], inHeader[1] = 1, 'a'
	cases["question compressed into the header"] = inHeader

	for name, w := range cases {
		t.Run(name, func(t *testing.T) { diffQuery(t, w) })
	}
}

// TestUnpackQueryReuse proves state from one decode cannot leak into
// the next on a recycled Query.
func TestUnpackQueryReuse(t *testing.T) {
	q := GetQuery()
	defer PutQuery(q)

	withECS := queryMessage(1, "long.name.with.many.labels.example", TypeA)
	if err := withECS.SetClientSubnet(ClientSubnet{
		Prefix: netip.MustParsePrefix("198.51.100.0/24"),
	}, 1232); err != nil {
		t.Fatal(err)
	}
	if err := q.UnpackQuery(mustPackMsg(t, withECS)); err != nil {
		t.Fatal(err)
	}
	if !q.HasECS || string(q.Name) != "long.name.with.many.labels.example." {
		t.Fatalf("first decode wrong: name %q, ecs %v", q.Name, q.HasECS)
	}

	plain := mustPackMsg(t, queryMessage(2, "x.example", TypeTXT))
	if err := q.UnpackQuery(plain); err != nil {
		t.Fatal(err)
	}
	if q.HasECS {
		t.Error("ECS leaked from the previous decode")
	}
	if string(q.Name) != "x.example." || q.Type != TypeTXT {
		t.Errorf("second decode wrong: name %q type %v", q.Name, q.Type)
	}
}

// TestUnpackQueryZeroAlloc is the package-level contract the server's
// hot path depends on: decoding a typical query (with and without
// ECS) into a reused Query allocates nothing.
func TestUnpackQueryZeroAlloc(t *testing.T) {
	plain := mustPackMsg(t, queryMessage(7, "www.site.example", TypeA))
	withECS := queryMessage(8, "www.site.example", TypeA)
	if err := withECS.SetClientSubnet(ClientSubnet{
		Prefix: netip.MustParsePrefix("192.0.2.0/24"),
	}, 1232); err != nil {
		t.Fatal(err)
	}
	ecsWire := mustPackMsg(t, withECS)
	q := GetQuery()
	defer PutQuery(q)
	for name, wire := range map[string][]byte{"plain": plain, "ecs": ecsWire} {
		wire := wire
		allocs := testing.AllocsPerRun(200, func() {
			if err := q.UnpackQuery(wire); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s query decode allocates %.1f times per op, want 0", name, allocs)
		}
	}
}

func BenchmarkUnpackQuery(b *testing.B) {
	m := queryMessage(7, "www.site.example", TypeA)
	if err := m.SetClientSubnet(ClientSubnet{
		Prefix: netip.MustParsePrefix("192.0.2.0/24"),
	}, 1232); err != nil {
		b.Fatal(err)
	}
	wire, err := m.Pack()
	if err != nil {
		b.Fatal(err)
	}
	q := GetQuery()
	defer PutQuery(q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.UnpackQuery(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpackLegacy(b *testing.B) {
	m := queryMessage(7, "www.site.example", TypeA)
	if err := m.SetClientSubnet(ClientSubnet{
		Prefix: netip.MustParsePrefix("192.0.2.0/24"),
	}, 1232); err != nil {
		b.Fatal(err)
	}
	wire, err := m.Pack()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unpack(wire); err != nil {
			b.Fatal(err)
		}
	}
}
