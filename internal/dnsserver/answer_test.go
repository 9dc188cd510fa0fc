package dnsserver

import (
	"bytes"
	"fmt"
	"math"
	"net/netip"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dnslb/internal/core"
	"dnslb/internal/dnswire"
	"dnslb/internal/engine"
	"dnslb/internal/simcore"
)

// testServerNoStart builds (without starting — the tests drive handle
// directly) a default-configuration server over the standard 7-node
// test cluster with every query mapped to domain 0.
func testServerNoStart(t testing.TB, policyName string) (*Server, *core.State) {
	t.Helper()
	cluster, err := core.ScaledCluster(7, 50, 500)
	if err != nil {
		t.Fatal(err)
	}
	state, err := core.NewState(cluster, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := state.SetWeights(simcore.ZipfWeights(20, 1)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	policy, err := core.NewPolicy(core.PolicyConfig{
		Name:  policyName,
		State: state,
		Rand:  simcore.NewStream(1, "answer"),
		Now:   func() float64 { return time.Since(start).Seconds() },
	})
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]netip.Addr, 7)
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)})
	}
	srv, err := New(Config{
		Zone:        "www.site.example",
		ServerAddrs: addrs,
		Policy:      policy,
		Mapper:      func(netip.Addr) int { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, state
}

// askA sends one IN A query for the zone through the handler and
// returns the decoded response.
func askA(t *testing.T, srv *Server) *dnswire.Message {
	t.Helper()
	out := srv.handle(zoneQuery(t, netip.Prefix{}), netip.MustParseAddr("127.0.0.1"), engine.TransportUDP, dnswire.MaxUDPPayload, nil)
	if out == nil {
		t.Fatal("query dropped")
	}
	resp, err := dnswire.Unpack(out)
	if err != nil {
		t.Fatalf("bad response: %v", err)
	}
	return resp
}

// answerServer extracts the chosen server index from the A answer.
func answerServer(t *testing.T, resp *dnswire.Message) int {
	t.Helper()
	if resp.Header.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
		t.Fatalf("unexpected response: rcode %v, %d answers", resp.Header.RCode, len(resp.Answers))
	}
	a, ok := resp.Answers[0].Data.(dnswire.A)
	if !ok {
		t.Fatalf("answer is %T, want A", resp.Answers[0].Data)
	}
	b := a.Addr.As4()
	return int(b[3]) - 1
}

// freshTTL computes what a fresh TTL calibration returns right now for
// (domain 0, server) — the value any served answer must carry.
func freshTTL(t *testing.T, state *core.State, server int) uint32 {
	t.Helper()
	tp, err := core.NewTTLPolicy(core.TTLVariant{Classes: core.PerDomain, ServerAware: true}, 240)
	if err != nil {
		t.Fatal(err)
	}
	return wireTTL(tp.TTL(state.Snapshot(), 0, server))
}

func TestWireTTL(t *testing.T) {
	for _, c := range []struct {
		seconds float64
		want    uint32
	}{
		{0, 1}, {0.4, 1}, {-3, 1}, {math.NaN(), 1},
		{1.5, 1}, {239.5, 239}, {240.4, 240}, {240.99, 240},
		{math.MaxUint32, math.MaxUint32}, {1e12, math.MaxUint32}, {math.Inf(1), math.MaxUint32},
	} {
		if got := wireTTL(c.seconds); got != c.want {
			t.Errorf("wireTTL(%v) = %d, want %d", c.seconds, got, c.want)
		}
	}
}

// TestWireTTLNeverOutlastsLedger: over the TTLs a policy can hand out
// ([1 s, 86 400 s], TTLPolicy's clamp), the wire TTL is never longer than
// the real TTL the ledger extends the mapping by.
func TestWireTTLNeverOutlastsLedger(t *testing.T) {
	s := simcore.NewStream(1, "wire-ttl")
	seconds := []float64{1, 1.5, 1.999, 2.5, 64.759, 239.5, 86399.5, 86400, math.Nextafter(86400, 0)}
	for range 1000 {
		seconds = append(seconds, 1+s.Float64()*86399)
	}
	for _, x := range seconds {
		if w := wireTTL(x); float64(w) > x {
			t.Errorf("wireTTL(%v) = %d, longer than the ledger's window", x, w)
		}
	}
}

// encodeBoth answers one query for the given zone twice — through
// appendReply and through the reference, a dnswire.Message packed by
// AppendPack, built the way the server built it before it had an encoder
// of its own — and returns both encodings. The query is made from its
// parts (and goes through UnpackQuery) so that the fuzzer can vary them.
func encodeBoth(t *testing.T, zone string, id uint16, rd bool, qtype dnswire.Type, ecs netip.Prefix, addr netip.Addr, ttl uint32, scope uint8) (got, want []byte) {
	t.Helper()
	query := &dnswire.Message{
		Header:    dnswire.Header{ID: id, RecursionDesired: rd},
		Questions: []dnswire.Question{{Name: zone, Type: qtype, Class: dnswire.ClassIN}},
	}
	if ecs.IsValid() {
		if err := query.SetClientSubnet(dnswire.ClientSubnet{Prefix: ecs}, 1232); err != nil {
			t.Fatal(err)
		}
	}
	wire, err := query.Pack()
	if err != nil {
		t.Fatal(err)
	}
	q := dnswire.GetQuery()
	defer dnswire.PutQuery(q)
	if err := q.UnpackQuery(wire); err != nil {
		t.Fatal(err)
	}
	if q.HasECS != ecs.IsValid() {
		t.Fatalf("HasECS = %v for subnet %v", q.HasECS, ecs)
	}

	canonical := dnswire.CanonicalName(zone)
	ref := &dnswire.Message{
		Header: dnswire.Header{
			ID:               id,
			Response:         true,
			Authoritative:    true,
			RecursionDesired: rd,
		},
		Questions: []dnswire.Question{{Name: canonical, Type: qtype, Class: dnswire.ClassIN}},
		Answers: []dnswire.ResourceRecord{{
			Name:  canonical,
			Type:  dnswire.TypeA,
			Class: dnswire.ClassIN,
			TTL:   ttl,
			Data:  dnswire.A{Addr: addr},
		}},
	}
	if q.HasECS {
		if err := ref.SetClientSubnet(dnswire.EchoClientSubnet(q.ECS, scope), dnswire.MaxUDPPayload); err != nil {
			t.Fatal(err)
		}
	}
	want, err = ref.AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}

	s := &Server{zone: canonical, zoneWire: wire[12 : 12+len(q.Question)-4]}
	r := reply{hdr: ref.Header, shape: shapeA, addr: addr, ttl: ttl, scope: scope}
	got = s.appendReply(make([]byte, 0, 512), q, &r, dnswire.MaxUDPPayload, nil)
	// The same answer when the question cannot be copied from the query.
	q.Question = nil
	if fallback := s.appendReply(nil, q, &r, dnswire.MaxUDPPayload, nil); !bytes.Equal(fallback, got) {
		t.Errorf("canonical-name fallback differs from the echoed question:\n got %x\nwant %x", fallback, got)
	}
	return got, want
}

// reference is the response to every query but an address query as the
// server built it before appendReply: a dnswire.Message, packed by
// AppendPack, stripped to header and question with TC when over maxSize.
// It stays here as the oracle of the encoder that replaced it.
func reference(t *testing.T, s *Server, q *dnswire.Query, maxSize int) []byte {
	t.Helper()
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
	soa := []dnswire.ResourceRecord{{
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
	}}
	switch {
	case q.Header.OpCode != dnswire.OpQuery:
		resp.Header.RCode = dnswire.RCodeNotImp
	case string(q.Name) != s.zone:
		resp.Header.RCode = dnswire.RCodeNXDomain
		resp.Authority = soa
	case q.Type == dnswire.TypeTXT:
		resp.Answers = []dnswire.ResourceRecord{{
			Name:  s.zone,
			Type:  dnswire.TypeTXT,
			Class: dnswire.ClassIN,
			Data: dnswire.TXT{Strings: []string{
				"policy=" + s.policy.Name(),
				fmt.Sprintf("decisions=%d", s.policy.Stats().Decisions),
			}},
		}}
	default:
		resp.Authority = soa
	}
	out, err := resp.AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) > maxSize {
		resp.Answers, resp.Authority = nil, nil
		resp.Header.Truncated = true
		if out, err = resp.AppendPack(nil); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// packQuery packs a query with the given opcode for name and type.
func packQuery(t testing.TB, id uint16, op dnswire.OpCode, name string, qtype dnswire.Type) []byte {
	t.Helper()
	wire, err := (&dnswire.Message{
		Header:    dnswire.Header{ID: id, OpCode: op, RecursionDesired: id%2 == 1},
		Questions: []dnswire.Question{{Name: name, Type: qtype, Class: dnswire.ClassIN}},
	}).Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// checkNegativeShape reads a negative answer the way benchmark/loadgen's
// checker does, by offsets alone: no answer, one authority record that
// is an SOA of class IN, nothing after it — and every compression
// pointer in it points backwards.
func checkNegativeShape(t *testing.T, msg []byte) {
	t.Helper()
	if an, ns, ar := msg[7], msg[9], msg[11]; msg[5] != 1 || an != 0 || ns != 1 || ar != 0 {
		t.Fatalf("counts qd=%d an=%d ns=%d ar=%d, want 1/0/1/0", msg[5], an, ns, ar)
	}
	// skipName returns the offset after the name at off; a pointer ends it.
	skipName := func(off int) int {
		for msg[off] != 0 {
			if msg[off]&0xC0 == 0xC0 {
				if target := int(msg[off]&0x3F)<<8 | int(msg[off+1]); target >= off {
					t.Fatalf("pointer at %d points forward, to %d", off, target)
				}
				return off + 2
			}
			off += 1 + int(msg[off])
		}
		return off + 1
	}
	off := skipName(skipName(12) + 4) // question, then the record's owner
	if typ, class := msg[off+1], msg[off+3]; typ != byte(dnswire.TypeSOA) || class != byte(dnswire.ClassIN) {
		t.Fatalf("authority record is type %d class %d, want SOA/IN", typ, class)
	}
	rdata := off + 10
	if end := rdata + int(msg[off+8])<<8 + int(msg[off+9]); end != len(msg) {
		t.Fatalf("SOA record ends at %d of %d bytes", end, len(msg))
	}
	if end := skipName(skipName(rdata)) + 20; end != len(msg) {
		t.Fatalf("SOA RDATA ends at %d of %d bytes", end, len(msg))
	}
}

// checkOtherShapes sends s, a server for zone, the queries that get
// every response shape but the address answer, and holds handle's
// response against the reference: byte for byte where the question names
// the zone, and as the same message after decoding for an NXDOMAIN,
// whose SOA owner the two encoders are free to compress differently —
// under, above and outside the zone.
func checkOtherShapes(t *testing.T, s *Server, other string) {
	t.Helper()
	zone := strings.TrimSuffix(s.zone, ".")
	from := netip.MustParseAddr("127.0.0.1")
	q := dnswire.GetQuery()
	defer dnswire.PutQuery(q)
	for _, c := range []struct {
		shape string
		wire  []byte
		// identical: the reference has nothing to compress differently.
		identical bool
	}{
		{"NODATA", packQuery(t, 1, dnswire.OpQuery, zone, dnswire.TypeAAAA), true},
		{"TXT", packQuery(t, 2, dnswire.OpQuery, zone, dnswire.TypeTXT), true},
		{"NOTIMP", packQuery(t, 3, dnswire.OpStatus, zone, dnswire.TypeA), true},
		{"NOTIMP other name", packQuery(t, 4, dnswire.OpIQuery, other, dnswire.TypeA), true},
		{"NXDOMAIN under", packQuery(t, 5, dnswire.OpQuery, "x."+zone, dnswire.TypeTXT), true},
		{"NXDOMAIN above", packQuery(t, 6, dnswire.OpQuery, zone[strings.IndexByte(zone, '.')+1:], dnswire.TypeA), false},
		{"NXDOMAIN outside", packQuery(t, 7, dnswire.OpQuery, other, dnswire.TypeA), false},
	} {
		if err := q.UnpackQuery(c.wire); err != nil {
			t.Fatal(err)
		}
		nxdomain := strings.HasPrefix(c.shape, "NXDOMAIN")
		if nxdomain && string(q.Name) == s.zone {
			continue // a zone of one label has nothing above it; the fuzzer's other name is the zone
		}
		for _, maxSize := range []int{dnswire.MaxUDPPayload, math.MaxUint16} {
			got := s.handle(c.wire, from, engine.TransportUDP, maxSize, make([]byte, 0, 64))
			want := reference(t, s, q, maxSize)
			if truncated := want[2]&0x02 != 0; c.identical || truncated {
				if !bytes.Equal(got, want) {
					t.Fatalf("%s, zone %.20s, limit %d:\n got %x\nwant %x", c.shape, zone, maxSize, got, want)
				}
				continue
			}
			gm, err := dnswire.Unpack(got)
			if err != nil {
				t.Fatalf("%s: %v in %x", c.shape, err, got)
			}
			wm, _ := dnswire.Unpack(want)
			if !reflect.DeepEqual(gm, wm) {
				t.Fatalf("%s, zone %.20s:\n got %+v\nwant %+v", c.shape, zone, gm, wm)
			}
			if n := 12 + len(q.Question); !bytes.Equal(got[12:n], q.Question) {
				t.Fatalf("%s: question %x, asked %x", c.shape, got[12:n], q.Question)
			}
			checkNegativeShape(t, got)
		}
	}
}

// shapesPolicy is the policy the hand-made servers name in their TXT
// answer.
var shapesPolicy = sync.OnceValue(func() *core.Policy {
	cluster, err := core.ScaledCluster(3, 0, 500)
	if err != nil {
		panic(err)
	}
	state, err := core.NewState(cluster, 4)
	if err != nil {
		panic(err)
	}
	policy, err := core.NewPolicy(core.PolicyConfig{Name: "RR", State: state})
	if err != nil {
		panic(err)
	}
	return policy
})

// shapesServer is a server for zone good for every query but an address
// query: made by hand, so that the fuzzer gets one per input cheaply
// (and for a zone New refuses as too long, which it then skips).
func shapesServer(t *testing.T, zone string) *Server {
	t.Helper()
	wire := packQuery(t, 0, dnswire.OpQuery, zone, dnswire.TypeA)
	return &Server{zone: dnswire.CanonicalName(zone), zoneWire: wire[12 : len(wire)-4], policy: shapesPolicy()}
}

// longZone is a name of the maximum length: 255 bytes on the wire.
// longSOAZone is the longest name a zone can have, 244 bytes on the
// wire: its SOA names "hostmaster." + zone.
var (
	longZone    = strings.Repeat(strings.Repeat("a", 63)+".", 3) + strings.Repeat("b", 61)
	longSOAZone = strings.Repeat(strings.Repeat("c", 63)+".", 3) + strings.Repeat("d", 50)
)

// TestAppendAnswerMatchesAppendPack proves the one encoder byte-identical
// to the Message-based reference over every input that varies between
// address answers, and that the largest possible answer fits the
// smallest transport limit (which is why appendAnswer never truncates).
func TestAppendAnswerMatchesAppendPack(t *testing.T) {
	subnets := []netip.Prefix{
		{}, // no ECS: no OPT in the answer
		netip.MustParsePrefix("10.4.7.0/24"),
		netip.MustParsePrefix("10.4.0.0/13"),
		netip.MustParsePrefix("0.0.0.0/0"),
		netip.MustParsePrefix("192.0.2.1/32"),
		netip.MustParsePrefix("2001:db8:4:5600::/56"),
		netip.MustParsePrefix("2001:db8::1/128"),
		netip.MustParsePrefix("::ffff:10.1.2.0/120"),
	}
	addr := netip.MustParseAddr("10.0.0.3")
	largest := 0
	for _, zone := range []string{"a", "www.site.example", longZone} {
		for _, rd := range []bool{false, true} {
			for _, qtype := range []dnswire.Type{dnswire.TypeA, dnswire.TypeANY} {
				for _, ecs := range subnets {
					for _, scope := range []uint8{0, 24, 56} {
						for _, ttl := range []uint32{wireTTL(0), 240, math.MaxUint32} {
							got, want := encodeBoth(t, zone, 0xBEEF, rd, qtype, ecs, addr, ttl, scope)
							if !bytes.Equal(got, want) {
								t.Fatalf("zone %.20s rd %v qtype %v ecs %v scope %d ttl %d:\n got %x\nwant %x",
									zone, rd, qtype, ecs, scope, ttl, got, want)
							}
							largest = max(largest, len(got))
						}
					}
				}
			}
		}
	}
	// 12 header + 255 name + 4 + 16 A record + 11 OPT + 4 option header
	// + 4 + 16 subnet.
	if largest != 322 || largest > dnswire.MaxUDPPayload {
		t.Errorf("largest address answer is %d bytes, want 322 (under the %d-byte UDP limit)", largest, dnswire.MaxUDPPayload)
	}

	// The other shapes. An NXDOMAIN for longZone under longSOAZone is the
	// response that does not fit 512 bytes: 12 + 259 + a 244-byte owner +
	// 10 + 39 of SOA.
	for _, zone := range []string{"a", "www.site.example", longSOAZone} {
		s := shapesServer(t, zone)
		for _, other := range []string{"ftp.site.example", "b", longZone} {
			checkOtherShapes(t, s, other)
		}
		if got := s.Stats().Truncated; (zone == longSOAZone) != (got == 1) {
			t.Errorf("zone %.20s: truncated counter = %d; only the NXDOMAIN for longZone under longSOAZone over UDP is", zone, got)
		}
	}
	// That response, untruncated, is the largest of all, and what the
	// serve loops' response buffers need not outgrow.
	out := shapesServer(t, longSOAZone).handle(packQuery(t, 1, dnswire.OpQuery, longZone, dnswire.TypeA),
		netip.MustParseAddr("127.0.0.1"), engine.TransportTCP, math.MaxUint16, nil)
	if len(out) != 564 || len(out) > respBufSize {
		t.Errorf("largest response is %d bytes, want 564", len(out))
	}
}

// FuzzAppendAnswer is the same equivalence over fuzzer-chosen inputs.
func FuzzAppendAnswer(f *testing.F) {
	f.Add("www.site.example", "ftp.site.example", uint16(7), true, false, []byte{10, 4, 7, 0}, uint8(24), uint8(24), uint32(240), []byte{10, 0, 0, 1})
	f.Add("a", "a.a.a", uint16(0), false, true, []byte{}, uint8(0), uint8(0), uint32(1), []byte{192, 0, 2, 9})
	f.Add(longZone, longSOAZone, uint16(65535), true, true,
		[]byte{0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, uint8(128), uint8(56), uint32(math.MaxUint32), []byte{10, 0, 0, 7})
	f.Add(longSOAZone, longZone, uint16(9), false, false, []byte{}, uint8(0), uint8(0), uint32(60), []byte{10, 0, 0, 2})
	f.Fuzz(func(t *testing.T, zone, other string, id uint16, rd, anyType bool, subnet []byte, bits, scope uint8, ttl uint32, server []byte) {
		if dnswire.CanonicalName(zone) == "." {
			t.Skip() // not a servable zone
		}
		for _, name := range []string{zone, other} {
			if _, err := (&dnswire.Message{Questions: []dnswire.Question{{Name: name}}}).Pack(); err != nil {
				t.Skip()
			}
		}
		addr, ok := netip.AddrFromSlice(server)
		if !ok || !addr.Is4() {
			t.Skip()
		}
		var ecs netip.Prefix
		if ip, ok := netip.AddrFromSlice(subnet); ok {
			p, err := ip.Prefix(int(bits))
			if err != nil {
				t.Skip()
			}
			ecs = p
		}
		qtype := dnswire.TypeA
		if anyType {
			qtype = dnswire.TypeANY
		}
		got, want := encodeBoth(t, zone, id, rd, qtype, ecs, addr, ttl, scope)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendReply differs from AppendPack:\n got %x\nwant %x", got, want)
		}
		if s := shapesServer(t, zone); len(s.zoneWire) <= maxZoneWire {
			checkOtherShapes(t, s, other)
		}
	})
}

// TestAnswersFreshAfterReconfiguration proves every reconfiguration
// event that changes the TTL calibration or the membership shows in the
// very next answers: served TTLs equal a fresh calibration, a joined
// server is scheduled, a draining one is not.
func TestAnswersFreshAfterReconfiguration(t *testing.T) {
	tripled := func() []float64 {
		w := append([]float64(nil), simcore.ZipfWeights(20, 1)...)
		w[0] *= 3 // domain 0's TTL shrinks
		return w
	}
	// ask sends n queries, checks each TTL against a fresh calibration,
	// and returns the set of servers answered.
	ask := func(t *testing.T, srv *Server, state *core.State, n int) map[int]bool {
		t.Helper()
		servers := make(map[int]bool)
		for i := 0; i < n; i++ {
			resp := askA(t, srv)
			server := answerServer(t, resp)
			servers[server] = true
			if want := freshTTL(t, state, server); resp.Answers[0].TTL != want {
				t.Fatalf("stale TTL: server %d got %d, want %d", server, resp.Answers[0].TTL, want)
			}
		}
		return servers
	}

	t.Run("weights (estimator roll, TTL recalibration)", func(t *testing.T) {
		srv, state := testServerNoStart(t, "DRR2-TTL/S_K")
		ask(t, srv, state, 40)
		if err := state.SetWeights(tripled()); err != nil {
			t.Fatal(err)
		}
		ask(t, srv, state, 40)
	})

	t.Run("capacity (reconfigure/SIGHUP reload)", func(t *testing.T) {
		srv, state := testServerNoStart(t, "DRR2-TTL/S_K")
		ask(t, srv, state, 40)
		// Same membership, server 0 at half capacity — the reload path.
		caps := make([]float64, 7)
		for i := range caps {
			caps[i] = state.Snapshot().Cluster().Capacity(i)
		}
		caps[0] /= 2
		if err := srv.Reconfigure(srv.serverAddrs(), caps); err != nil {
			t.Fatal(err)
		}
		ask(t, srv, state, 40)
	})

	t.Run("join", func(t *testing.T) {
		srv, state := testServerNoStart(t, "DRR2-TTL/S_K")
		ask(t, srv, state, 40)
		if _, err := srv.Join(netip.MustParseAddr("10.0.0.8"), 400); err != nil {
			t.Fatal(err)
		}
		if servers := ask(t, srv, state, 80); !servers[7] {
			t.Error("joined server 7 never scheduled after join")
		}
	})

	t.Run("drain", func(t *testing.T) {
		srv, state := testServerNoStart(t, "DRR2-TTL/S_K")
		ask(t, srv, state, 40)
		if _, err := srv.Drain(3); err != nil {
			t.Fatal(err)
		}
		if servers := ask(t, srv, state, 40); servers[3] {
			t.Fatal("draining server 3 still scheduled")
		}
	})

	t.Run("checkpoint restore", func(t *testing.T) {
		srv, state := testServerNoStart(t, "DRR2-TTL/S_K")
		ask(t, srv, state, 40)
		cp := srv.Checkpoint()                              // weights W1
		if err := state.SetWeights(tripled()); err != nil { // now W2
			t.Fatal(err)
		}
		ask(t, srv, state, 40)
		if err := srv.RestoreCheckpoint(cp, 0); err != nil { // back to W1
			t.Fatal(err)
		}
		ask(t, srv, state, 40)
	})
}

// TestNoStaleTTLUnderReloadLoad is the -race e2e: query workers hammer
// the handler while weights flip between two known settings. Every
// served TTL must match one of the two calibrations for the answered
// server — a third value would be a stale mix — and once the flipping
// stops, every answer must match the final calibration exactly.
func TestNoStaleTTLUnderReloadLoad(t *testing.T) {
	srv, state := testServerNoStart(t, "DRR2-TTL/S_K")

	w1 := simcore.ZipfWeights(20, 1)
	w2 := make([]float64, 20)
	copy(w2, w1)
	w2[0] *= 3

	// The two admissible TTLs per server, one per weight setting.
	if err := state.SetWeights(w1); err != nil {
		t.Fatal(err)
	}
	want1 := make([]uint32, 7)
	for i := range want1 {
		want1[i] = freshTTL(t, state, i)
	}
	if err := state.SetWeights(w2); err != nil {
		t.Fatal(err)
	}
	want2 := make([]uint32, 7)
	for i := range want2 {
		want2[i] = freshTTL(t, state, i)
	}

	wire := zoneQuery(t, netip.Prefix{})
	from := netip.MustParseAddr("127.0.0.1")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				out := srv.handle(wire, from, engine.TransportUDP, dnswire.MaxUDPPayload, nil)
				resp, err := dnswire.Unpack(out)
				if err != nil {
					errs <- "unparseable response: " + err.Error()
					return
				}
				a, ok := resp.Answers[0].Data.(dnswire.A)
				if !ok {
					errs <- "non-A answer under load"
					return
				}
				b := a.Addr.As4()
				server := int(b[3]) - 1
				ttl := resp.Answers[0].TTL
				if ttl != want1[server] && ttl != want2[server] {
					errs <- "stale TTL mix under reload"
					return
				}
			}
		}()
	}
	// The reloader: flip the weights back and forth for a while.
	for i := 0; i < 200; i++ {
		w := w1
		if i%2 == 0 {
			w = w2
		}
		if err := state.SetWeights(w); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}

	// Settle on w1 and verify exact freshness.
	if err := state.SetWeights(w1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		resp := askA(t, srv)
		server := answerServer(t, resp)
		if resp.Answers[0].TTL != want1[server] {
			t.Fatalf("stale TTL after reload settled: server %d got %d, want %d",
				server, resp.Answers[0].TTL, want1[server])
		}
	}
}

// TestCompressedQuestionEchoesAskedName: a query may compress its
// question's name — here into the header, a pointer to offset 0, where
// the zero ID reads as the root — and then there are no question bytes
// to copy into the response. The shapes whose name was never matched
// against the zone must spell the name that was asked, not the zone's.
func TestCompressedQuestionEchoesAskedName(t *testing.T) {
	srv, _ := testServerNoStart(t, "RR")
	for _, c := range []struct {
		op    dnswire.OpCode
		name  string
		rcode dnswire.RCode
	}{
		{dnswire.OpQuery, "\x03FtP", dnswire.RCodeNXDomain},
		{dnswire.OpStatus, "\x03FtP", dnswire.RCodeNotImp},
		{dnswire.OpStatus, "\x03wWw\x04site\x07example", dnswire.RCodeNotImp},
		{dnswire.OpQuery, "\x03wWw\x04site\x07example", dnswire.RCodeNoError},
	} {
		wire := []byte{0, 0, byte(c.op) << 3, 0, 0, 1, 0, 0, 0, 0, 0, 0}
		wire = append(wire, c.name...)
		wire = append(wire, 0xC0, 0, 0, byte(dnswire.TypeAAAA), 0, byte(dnswire.ClassIN))
		out := srv.handle(wire, netip.MustParseAddr("127.0.0.1"), engine.TransportTCP, math.MaxUint16, nil)
		want := append(bytes.ToLower([]byte(c.name)), 0, 0, byte(dnswire.TypeAAAA), 0, byte(dnswire.ClassIN))
		if len(out) < 12+len(want) || !bytes.Equal(out[12:12+len(want)], want) {
			t.Fatalf("%v for %q: question %x, want %x", c.rcode, c.name, out[12:], want)
		}
		resp, err := dnswire.Unpack(out)
		if err != nil {
			t.Fatalf("%v for %q: %v", c.rcode, c.name, err)
		}
		if resp.Header.RCode != c.rcode || resp.Header.OpCode != c.op {
			t.Errorf("%q: %v, opcode %d; want %v, opcode %d", c.name, resp.Header.RCode, resp.Header.OpCode, c.rcode, c.op)
		}
		if c.op == dnswire.OpQuery {
			checkNegativeShape(t, out)
			if owner := resp.Authority[0].Name; owner != "www.site.example." {
				t.Errorf("%q: SOA owner %q", c.name, owner)
			}
		}
	}
}

// TestUnseenDomainIsNotPinnedForADay: after the first ROLL, a domain
// that sent no hits in it has a zero estimated rate. It is unknown, not
// cold: the answer carries the hottest domain's TTL, not a day, and
// draining the server it names waits out exactly that TTL, not a day.
// The server runs on a ManualClock; nothing in the test waits.
func TestUnseenDomainIsNotPinnedForADay(t *testing.T) {
	srv, _, clk := manualServer(t, "DRR-TTL/S_K", false, func(cfg *Config) {
		cfg.Estimator = core.EstimatorReactive
		cfg.Mapper = func(a netip.Addr) int { return int(a.As4()[3]) % 4 }
	})
	for _, line := range []string{"HITS 0 300", "HITS 1 100", "ROLL 60"} {
		if _, err := srv.applyReport(line); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
	}
	const day = 86400
	out := srv.handle(zoneQuery(t, netip.Prefix{}), netip.AddrFrom4([4]byte{127, 0, 0, 2}), engine.TransportUDP, dnswire.MaxUDPPayload, nil)
	resp, err := dnswire.Unpack(out)
	if err != nil {
		t.Fatal(err)
	}
	server := answerServer(t, resp)
	ttl := resp.Answers[0].TTL
	if ttl >= day/24 {
		t.Errorf("domain 2, first seen after the first roll, answered with TTL %d s", ttl)
	}
	deadline, err := srv.Drain(server)
	if err != nil {
		t.Fatal(err)
	}
	if wait := clk.Seconds(deadline) - clk.Now(); wait != float64(ttl) {
		t.Errorf("draining server %d waits %v s for a mapping handed out with TTL %d s", server, wait, ttl)
	}
}
