package dnsserver

import (
	"bytes"
	"math"
	"net/netip"
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
		{1.5, 2}, {239.5, 240}, {240.4, 240},
		{math.MaxUint32, math.MaxUint32}, {1e12, math.MaxUint32}, {math.Inf(1), math.MaxUint32},
	} {
		if got := wireTTL(c.seconds); got != c.want {
			t.Errorf("wireTTL(%v) = %d, want %d", c.seconds, got, c.want)
		}
	}
}

// encodeBoth answers one query for the given zone twice — through
// appendAnswer and through the reference, a dnswire.Message packed by
// AppendPack, built the way the server built it before appendAnswer
// existed — and returns both encodings. The query is made from its
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
	got = s.appendAnswer(make([]byte, 0, 512), q, addr, ttl, scope)
	// The same answer when the question cannot be copied from the query.
	q.Question = nil
	if fallback := s.appendAnswer(nil, q, addr, ttl, scope); !bytes.Equal(fallback, got) {
		t.Errorf("canonical-name fallback differs from the echoed question:\n got %x\nwant %x", fallback, got)
	}
	return got, want
}

// longZone is a name of the maximum length: 255 bytes on the wire.
var longZone = strings.Repeat(strings.Repeat("a", 63)+".", 3) + strings.Repeat("b", 61)

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
}

// FuzzAppendAnswer is the same equivalence over fuzzer-chosen inputs.
func FuzzAppendAnswer(f *testing.F) {
	f.Add("www.site.example", uint16(7), true, false, []byte{10, 4, 7, 0}, uint8(24), uint8(24), uint32(240), []byte{10, 0, 0, 1})
	f.Add("a", uint16(0), false, true, []byte{}, uint8(0), uint8(0), uint32(1), []byte{192, 0, 2, 9})
	f.Add(longZone, uint16(65535), true, true,
		[]byte{0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, uint8(128), uint8(56), uint32(math.MaxUint32), []byte{10, 0, 0, 7})
	f.Fuzz(func(t *testing.T, zone string, id uint16, rd, anyType bool, subnet []byte, bits, scope uint8, ttl uint32, server []byte) {
		if dnswire.CanonicalName(zone) == "." {
			t.Skip() // not a servable zone
		}
		if _, err := (&dnswire.Message{Questions: []dnswire.Question{{Name: zone}}}).Pack(); err != nil {
			t.Skip()
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
			t.Fatalf("appendAnswer differs from AppendPack:\n got %x\nwant %x", got, want)
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
