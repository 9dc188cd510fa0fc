package dnsserver

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dnslb/internal/core"
	"dnslb/internal/engine"
	"dnslb/internal/simcore"
)

// smallServer starts a server over a 3-node homogeneous cluster with a
// TTL policy whose drain windows are short enough for lifecycle tests.
func smallServer(t *testing.T, policyName string) (*Server, *core.State) {
	t.Helper()
	return smallServerKind(t, policyName, "", true)
}

// smallServerKind builds a server with the given estimator kind.
// started=false skips binding the DNS sockets — checkpoint/restore
// tests exercise no network path, and every extra UDP+TCP same-port
// bind raises the suite-wide chance of an ephemeral-port collision.
func smallServerKind(t *testing.T, policyName, estKind string, started bool) (*Server, *core.State) {
	t.Helper()
	return smallServerCfg(t, policyName, started, func(cfg *Config) { cfg.Estimator = estKind })
}

// smallServerCfg is smallServerKind with the Config open to edits before
// New.
func smallServerCfg(t *testing.T, policyName string, started bool, edit func(*Config)) (*Server, *core.State) {
	t.Helper()
	return smallServerOn(t, policyName, started, engine.NewWallClock(), edit)
}

// manualServer is smallServerCfg on a ManualClock set to 100 s, which the
// test steps; the policy reads it too.
func manualServer(t *testing.T, policyName string, started bool, edit func(*Config)) (*Server, *core.State, *engine.ManualClock) {
	t.Helper()
	clk := &engine.ManualClock{}
	clk.Set(100)
	srv, state := smallServerOn(t, policyName, started, clk, edit)
	return srv, state, clk
}

// smallServerOn is smallServerCfg on the given clock.
func smallServerOn(t *testing.T, policyName string, started bool, clk clock, edit func(*Config)) (*Server, *core.State) {
	t.Helper()
	cluster, err := core.ScaledCluster(3, 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	state, err := core.NewState(cluster, 4)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := core.NewPolicy(core.PolicyConfig{
		Name:  policyName,
		State: state,
		Rand:  simcore.NewStream(1, "reconfig"),
		Now:   clk.Now,
		// One-second TTLs keep the drain windows short.
		ConstantTTL: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]netip.Addr, 3)
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{10, 1, 0, byte(i + 1)})
	}
	cfg := Config{
		Zone:        "www.site.example",
		ServerAddrs: addrs,
		Policy:      policy,
		Addr:        "127.0.0.1:0",
		ReportAddr:  "127.0.0.1:0",
	}
	edit(&cfg)
	srv, err := newServer(cfg, clk)
	if err != nil {
		t.Fatal(err)
	}
	if started {
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, state
}

// noteMapping records a mapping with the given TTL handed out to server
// i now, as the query path's decisions do, and queues it for gossip.
func (s *Server) noteMapping(server int, ttlSeconds float64) {
	s.eng.NoteMapping(server, s.clock.Now()+ttlSeconds)
	if s.replNode != nil {
		s.replNode.NoteLedger()
	}
}

func TestJoinAddsSchedulableServer(t *testing.T) {
	srv, state := smallServer(t, "RR")

	newAddr := netip.AddrFrom4([4]byte{10, 1, 0, 99})
	idx, err := srv.Join(newAddr, 500)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 3 {
		t.Fatalf("join index = %d, want 3", idx)
	}
	if srv.Servers() != 4 {
		t.Fatalf("Servers() = %d, want 4", srv.Servers())
	}
	if !state.Snapshot().Member(3) {
		t.Error("joined server not a member")
	}

	// The joined server must actually receive queries.
	r := resolverFor(t, srv)
	ctx := context.Background()
	sawNew := false
	for i := 0; i < 40 && !sawNew; i++ {
		answers, err := r.LookupA(ctx, "www.site.example")
		if err != nil {
			t.Fatal(err)
		}
		if len(answers) == 1 && answers[0].Addr == newAddr {
			sawNew = true
		}
	}
	if !sawNew {
		t.Error("joined server never scheduled over 40 RR queries")
	}
}

func TestJoinValidation(t *testing.T) {
	srv, _ := smallServer(t, "RR")

	if _, err := srv.Join(netip.MustParseAddr("2001:db8::1"), 500); err == nil {
		t.Error("IPv6 join should be rejected")
	}
	if _, err := srv.Join(netip.AddrFrom4([4]byte{10, 1, 0, 50}), -1); err == nil {
		t.Error("negative capacity should be rejected")
	}
	if srv.Servers() != 3 {
		t.Fatalf("failed joins must not grow the address table, Servers() = %d", srv.Servers())
	}
}

func TestDuplicateJoinUpdatesCapacity(t *testing.T) {
	srv, state := smallServer(t, "RR")

	idx, err := srv.Join(netip.AddrFrom4([4]byte{10, 1, 0, 2}), 750)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("duplicate join index = %d, want existing slot 1", idx)
	}
	if srv.Servers() != 3 {
		t.Fatalf("duplicate join grew the table to %d slots", srv.Servers())
	}
	if got := state.Snapshot().Cluster().Capacity(1); got != 750 {
		t.Fatalf("capacity after duplicate join = %v, want 750", got)
	}
}

func TestDrainValidation(t *testing.T) {
	srv, state := smallServer(t, "RR")

	if _, err := srv.Drain(-1); err == nil {
		t.Error("negative index should be rejected")
	}
	if _, err := srv.Drain(3); err == nil {
		t.Error("out-of-range index should be rejected")
	}

	// Draining a down server is allowed (it holds no hidden load), but
	// the last schedulable server is protected.
	if err := state.SetDown(0, true); err != nil {
		t.Fatal(err)
	}
	if err := state.SetDown(1, true); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Drain(2); err == nil {
		t.Error("last schedulable server must not drain")
	}
	if _, err := srv.Drain(0); err != nil {
		t.Errorf("draining a down server should work: %v", err)
	}
}

// TestDrainStopsNewMappingsAndRemoves: a drain stops new mappings to the
// server at once, keeps it a member while the largest TTL handed out to it
// is outstanding, and the sweep retires it at that deadline, not a
// millisecond before. The server runs on a ManualClock; nothing waits.
func TestDrainStopsNewMappingsAndRemoves(t *testing.T) {
	srv, state, clk := manualServer(t, "RR", true, func(*Config) {})
	r := resolverFor(t, srv)
	ctx := context.Background()

	// Hand out mappings to every server at two instants; server 1's
	// window ends one TTL after the later one.
	last := clk.Now() + 0.25
	var ttl time.Duration
	for _, now := range []float64{clk.Now(), last} {
		clk.Set(now)
		for i := 0; i < 3; i++ {
			answers, err := r.LookupA(ctx, "www.site.example")
			if err != nil {
				t.Fatal(err)
			}
			ttl = answers[0].TTL
		}
	}
	if ttl != time.Second {
		t.Fatalf("answer TTL %v, want the policy's constant 1 s", ttl)
	}

	deadline, err := srv.Drain(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := clk.Time(last + ttl.Seconds()); !deadline.Equal(want) || !srv.MappingExpiry(1).Equal(want) {
		t.Errorf("drain deadline = %v, mapping expiry %v; want %v", deadline, srv.MappingExpiry(1), want)
	}
	if !state.Snapshot().Draining(1) {
		t.Error("server 1 not draining")
	}

	// Idempotent: a second drain returns the same pending deadline.
	again, err := srv.Drain(1)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Equal(deadline) {
		t.Errorf("repeat drain deadline = %v, want %v", again, deadline)
	}

	// No new mappings reach the draining server, but it stays a member
	// (resolvable, still serving its cached clients) until the deadline.
	drained := netip.AddrFrom4([4]byte{10, 1, 0, 2})
	for i := 0; i < 20; i++ {
		answers, err := r.LookupA(ctx, "www.site.example")
		if err != nil {
			t.Fatal(err)
		}
		if len(answers) == 1 && answers[0].Addr == drained {
			t.Fatal("draining server received a new mapping")
		}
	}
	clk.Set(clk.Seconds(deadline) - 0.001)
	srv.retireDrained()
	if !state.Snapshot().Member(1) {
		t.Fatal("draining server removed before its hidden-load window closed")
	}

	// At the deadline the sweep retires the slot.
	clk.Set(clk.Seconds(deadline))
	srv.retireDrained()
	if sn := state.Snapshot(); sn.Member(1) || sn.Draining(1) {
		t.Errorf("server 1 at its drain deadline: member %v, draining %v", sn.Member(1), sn.Draining(1))
	}
	if n := srv.removals.Load(); n != 1 {
		t.Errorf("removals = %d, want 1", n)
	}
}

// TestRejoinCancelsDrain: a re-JOIN of a draining server's address
// reinstates it, and the sweep past the old deadline leaves it a member.
func TestRejoinCancelsDrain(t *testing.T) {
	srv, state, clk := manualServer(t, "RR", false, func(*Config) {})

	// Open a wide hidden-load window so the drain cannot complete
	// mid-test, then cancel it by re-joining the same address.
	srv.noteMapping(1, 3600)
	if _, err := srv.Drain(1); err != nil {
		t.Fatal(err)
	}
	if !state.Snapshot().Draining(1) {
		t.Fatal("server 1 not draining")
	}
	idx, err := srv.Join(netip.AddrFrom4([4]byte{10, 1, 0, 2}), 500)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("re-join index = %d, want 1", idx)
	}
	if sn := state.Snapshot(); sn.Draining(1) || !sn.Member(1) {
		t.Error("re-join did not cancel the drain")
	}
	clk.Set(clk.Now() + 3601)
	srv.retireDrained()
	if sn := state.Snapshot(); !sn.Member(1) || srv.removals.Load() != 0 {
		t.Error("the sweep retired a re-joined server")
	}
}

func TestReconfigureSwapsServerSet(t *testing.T) {
	srv, state := smallServer(t, "RR")

	// Desired set: keep 10.1.0.1 and 10.1.0.3, drop 10.1.0.2, add
	// 10.1.0.77.
	desired := []netip.Addr{
		netip.AddrFrom4([4]byte{10, 1, 0, 1}),
		netip.AddrFrom4([4]byte{10, 1, 0, 3}),
		netip.AddrFrom4([4]byte{10, 1, 0, 77}),
	}
	if err := srv.Reconfigure(desired, []float64{500, 500, 250}); err != nil {
		t.Fatal(err)
	}
	if srv.reloads.Load() != 1 {
		t.Errorf("reloads = %d, want 1", srv.reloads.Load())
	}
	if sn := state.Snapshot(); !sn.Draining(1) && sn.Member(1) {
		t.Error("dropped server neither draining nor removed")
	}
	if srv.Servers() != 4 || !state.Snapshot().Member(3) {
		t.Error("added server not admitted")
	}
	if got := state.Snapshot().Cluster().Capacity(3); got != 250 {
		t.Errorf("added server capacity = %v, want 250", got)
	}

	// Validation failures leave membership untouched.
	for _, tc := range []struct {
		name  string
		addrs []netip.Addr
		caps  []float64
	}{
		{"empty", nil, nil},
		{"length mismatch", desired, []float64{500}},
		{"ipv6", []netip.Addr{netip.MustParseAddr("2001:db8::1")}, []float64{500}},
		{"duplicate", []netip.Addr{desired[0], desired[0]}, []float64{500, 500}},
	} {
		if err := srv.Reconfigure(tc.addrs, tc.caps); err == nil {
			t.Errorf("%s: Reconfigure accepted invalid input", tc.name)
		}
	}
}

// TestReloadUnderLoad is the zero-downtime acceptance test at package
// level: queries hammer the server from several goroutines while the
// server set is reconfigured (one server replaced by another); no query
// may fail, and no answer may point at a server that was never in
// either configuration. Run with -race this also exercises the
// lock-free address/snapshot publication.
func TestReloadUnderLoad(t *testing.T) {
	srv, _ := smallServer(t, "RR")

	oldAddr := netip.AddrFrom4([4]byte{10, 1, 0, 2})
	newAddr := netip.AddrFrom4([4]byte{10, 1, 0, 42})
	valid := map[netip.Addr]bool{
		netip.AddrFrom4([4]byte{10, 1, 0, 1}): true,
		oldAddr:                               true,
		netip.AddrFrom4([4]byte{10, 1, 0, 3}): true,
		newAddr:                               true,
	}

	const workers = 4
	stop := make(chan struct{})
	errCh := make(chan error, workers)
	var drainStarted sync.WaitGroup
	drainStarted.Add(1)
	var afterMu sync.Mutex
	mappedOldAfterDrain := 0

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := resolverFor(t, srv)
			ctx := context.Background()
			drained := false
			for {
				select {
				case <-stop:
					return
				default:
				}
				answers, err := r.LookupA(ctx, "www.site.example")
				if err != nil {
					errCh <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				if len(answers) != 1 {
					errCh <- fmt.Errorf("worker %d: %d answers", w, len(answers))
					return
				}
				if !valid[answers[0].Addr] {
					errCh <- fmt.Errorf("worker %d: answer %v not in any config", w, answers[0].Addr)
					return
				}
				if !drained {
					select {
					case <-waitDone(&drainStarted):
						drained = true
					default:
					}
				} else if answers[0].Addr == oldAddr {
					afterMu.Lock()
					mappedOldAfterDrain++
					afterMu.Unlock()
				}
			}
		}(w)
	}

	// Let the load build, then swap 10.1.0.2 for 10.1.0.42 mid-flight.
	time.Sleep(50 * time.Millisecond)
	desired := []netip.Addr{
		netip.AddrFrom4([4]byte{10, 1, 0, 1}),
		netip.AddrFrom4([4]byte{10, 1, 0, 3}),
		newAddr,
	}
	if err := srv.Reconfigure(desired, []float64{500, 500, 500}); err != nil {
		t.Fatal(err)
	}
	drainStarted.Done()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	afterMu.Lock()
	defer afterMu.Unlock()
	if mappedOldAfterDrain > 0 {
		t.Errorf("%d mappings handed to the drained server after Reconfigure returned", mappedOldAfterDrain)
	}
}

// waitDone adapts a WaitGroup to a selectable channel.
func waitDone(wg *sync.WaitGroup) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		wg.Wait()
		close(ch)
	}()
	return ch
}

func TestReportJoinDrainVerbs(t *testing.T) {
	srv, state := smallServer(t, "RR")
	addr := srv.ReportAddr().String()

	resp := sendReports(t, addr, "JOIN 10.1.0.200 500")
	if resp[0] != "OK 3\n" {
		t.Fatalf("JOIN response = %q, want \"OK 3\\n\"", resp[0])
	}
	if !state.Snapshot().Member(3) {
		t.Error("JOIN did not admit the server")
	}

	// Open a window, then DRAIN over the wire.
	srv.noteMapping(3, 3600)
	resp = sendReports(t, addr, "DRAIN 3")
	if resp[0] != "OK\n" {
		t.Fatalf("DRAIN response = %q", resp[0])
	}
	if !state.Snapshot().Draining(3) {
		t.Error("DRAIN did not start draining")
	}

	// Error paths answer ERR and change nothing.
	for _, tc := range []struct{ line, why string }{
		{"JOIN 10.1.0.201", "missing capacity"},
		{"JOIN not-an-ip 500", "bad address"},
		{"JOIN 2001:db8::1 500", "IPv6 address"},
		{"JOIN 10.1.0.202 0", "zero capacity"},
		{"DRAIN", "missing index"},
		{"DRAIN x", "bad index"},
		{"DRAIN 17", "out of range"},
	} {
		resp := sendReports(t, addr, tc.line)
		if !strings.HasPrefix(resp[0], "ERR ") {
			t.Errorf("%s (%s): response = %q, want ERR", tc.line, tc.why, resp[0])
		}
	}
	if srv.Servers() != 4 {
		t.Errorf("failed verbs changed the server table to %d slots", srv.Servers())
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	srv, state := smallServer(t, "PRR-TTL/1")
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")

	// Build up non-trivial soft state: weights, an alarm, a drain with
	// an open window.
	srv.RecordHits(2, 900)
	srv.RecordHits(0, 100)
	if err := srv.eng.RollEstimates(8); err != nil {
		t.Fatal(err)
	}
	if err := srv.eng.SetAlarm(0, true); err != nil {
		t.Fatal(err)
	}
	srv.noteMapping(1, 3600)
	if _, err := srv.Drain(1); err != nil {
		t.Fatal(err)
	}
	if err := srv.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if srv.ckptSaves.Load() != 1 {
		t.Errorf("checkpoint saves = %d, want 1", srv.ckptSaves.Load())
	}
	wantWeights := state.Snapshot().Weights()
	wantExpiry := srv.MappingExpiry(1)

	// A fresh server with the same shape restores everything.
	srv2, state2 := smallServer(t, "PRR-TTL/1")
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.RestoreCheckpoint(cp, time.Hour); err != nil {
		t.Fatal(err)
	}
	for j, w := range state2.Snapshot().Weights() {
		if diff := w - wantWeights[j]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("restored weight[%d] = %v, want %v", j, w, wantWeights[j])
		}
	}
	if !state2.Snapshot().Alarmed(0) {
		t.Error("alarm not restored")
	}
	if !state2.Snapshot().Draining(1) {
		t.Error("drain not resumed")
	}
	if got := srv2.MappingExpiry(1); !got.Equal(wantExpiry) {
		t.Errorf("restored hidden-load window = %v, want %v", got, wantExpiry)
	}
}

func TestCheckpointRejection(t *testing.T) {
	srv, _ := smallServer(t, "RR")
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := srv.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	// Corrupt file.
	if err := os.WriteFile(path, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Error("corrupt checkpoint loaded without error")
	}

	fresh := func() *Checkpoint { return srv.Checkpoint() }

	// Wrong version.
	cp := fresh()
	cp.Version = 99
	if err := srv.RestoreCheckpoint(cp, 0); err == nil {
		t.Error("wrong-version checkpoint accepted")
	}
	// Wrong zone.
	cp = fresh()
	cp.Zone = "other.example."
	if err := srv.RestoreCheckpoint(cp, 0); err == nil {
		t.Error("wrong-zone checkpoint accepted")
	}
	// Wrong policy.
	cp = fresh()
	cp.Policy = "TTL/2"
	if err := srv.RestoreCheckpoint(cp, 0); err == nil {
		t.Error("wrong-policy checkpoint accepted")
	}
	// Stale.
	cp = fresh()
	cp.SavedAt = time.Now().Add(-2 * time.Hour)
	if err := srv.RestoreCheckpoint(cp, time.Hour); err == nil {
		t.Error("stale checkpoint accepted")
	}
	// Estimator shape mismatch.
	cp = fresh()
	cp.Estimator.Rates = cp.Estimator.Rates[:1]
	if err := srv.RestoreCheckpoint(cp, 0); err == nil {
		t.Error("malformed estimator state accepted")
	}
}

// A checkpoint whose rotation cursors lie outside the cluster is
// restored without them: the rotation starts fresh and the next A query
// is answered, instead of every query panicking in the selector.
func TestCheckpointOutOfRangeCursors(t *testing.T) {
	for _, c := range []struct {
		policy  string
		cursors []int64
	}{
		{"RR2", []int64{-5, -5}},
		{"RR", []int64{math.MaxInt64}},
		{"PRR-TTL/1", []int64{7}},
	} {
		srv, _ := testServerNoStart(t, c.policy)
		cp := srv.Checkpoint()
		cp.Cursors = c.cursors
		if err := srv.RestoreCheckpoint(cp, 0); err != nil {
			t.Fatalf("%s: %v", c.policy, err)
		}
		if got := srv.policy.Cursors(); slices.Equal(got, c.cursors) {
			t.Errorf("%s: out-of-range cursors %v restored", c.policy, got)
		}
		if i := answerServer(t, askA(t, srv)); i < 0 || i >= 7 {
			t.Errorf("%s: answered server %d of 7", c.policy, i)
		}
	}
}

func TestCheckpointRoundTripPredictive(t *testing.T) {
	srv, state := smallServerKind(t, "PRR-TTL/1", core.EstimatorPredictive, false)
	path := filepath.Join(t.TempDir(), "state.json")

	srv.RecordHits(2, 900)
	srv.RecordHits(0, 100)
	if err := srv.eng.RollEstimates(8); err != nil {
		t.Fatal(err)
	}
	if err := srv.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	wantWeights := state.Snapshot().Weights()

	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Estimator.Kind != core.EstimatorPredictive {
		t.Fatalf("checkpoint estimator kind = %q, want predictive", cp.Estimator.Kind)
	}

	srv2, state2 := smallServerKind(t, "PRR-TTL/1", core.EstimatorPredictive, false)
	if err := srv2.RestoreCheckpoint(cp, time.Hour); err != nil {
		t.Fatal(err)
	}
	for j, w := range state2.Snapshot().Weights() {
		if diff := w - wantWeights[j]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("restored weight[%d] = %v, want %v", j, w, wantWeights[j])
		}
	}
}

// TestCheckpointCrossKindRefused pins the kind fence: a checkpoint
// written under one estimator kind must be refused — with an error
// naming the offending kind — by a server running the other, and the
// refusal must leave the cold-start state untouched.
func TestCheckpointCrossKindRefused(t *testing.T) {
	reactive, _ := smallServer(t, "RR")
	predictive, _ := smallServerKind(t, "RR", core.EstimatorPredictive, false)
	dir := t.TempDir()

	rPath := filepath.Join(dir, "reactive.json")
	reactive.RecordHits(1, 500)
	if err := reactive.eng.RollEstimates(8); err != nil {
		t.Fatal(err)
	}
	if err := reactive.WriteCheckpoint(rPath); err != nil {
		t.Fatal(err)
	}
	pPath := filepath.Join(dir, "predictive.json")
	predictive.RecordHits(1, 500)
	if err := predictive.eng.RollEstimates(8); err != nil {
		t.Fatal(err)
	}
	if err := predictive.WriteCheckpoint(pPath); err != nil {
		t.Fatal(err)
	}

	rCp, err := LoadCheckpoint(rPath)
	if err != nil {
		t.Fatal(err)
	}
	pCp, err := LoadCheckpoint(pPath)
	if err != nil {
		t.Fatal(err)
	}

	victim, victimState := smallServerKind(t, "RR", core.EstimatorPredictive, false)
	if err := victim.RestoreCheckpoint(rCp, time.Hour); err == nil {
		t.Fatal("predictive server accepted a reactive checkpoint")
	} else if !strings.Contains(err.Error(), "reactive") {
		t.Errorf("refusal should name the checkpoint's kind: %v", err)
	}
	for j, w := range victimState.Snapshot().Weights() {
		if w != 1.0/4 {
			t.Errorf("refused restore moved weight[%d] to %v; state must stay cold", j, w)
		}
	}

	victim2, victim2State := smallServer(t, "RR")
	if err := victim2.RestoreCheckpoint(pCp, time.Hour); err == nil {
		t.Fatal("reactive server accepted a predictive checkpoint")
	} else if !strings.Contains(err.Error(), "predictive") {
		t.Errorf("refusal should name the checkpoint's kind: %v", err)
	}
	for j, w := range victim2State.Snapshot().Weights() {
		if w != 1.0/4 {
			t.Errorf("refused restore moved weight[%d] to %v; state must stay cold", j, w)
		}
	}

	// Same-kind restore of the predictive checkpoint still works.
	fresh, _ := smallServerKind(t, "RR", core.EstimatorPredictive, false)
	if err := fresh.RestoreCheckpoint(pCp, time.Hour); err != nil {
		t.Errorf("same-kind predictive restore failed: %v", err)
	}
}

func TestCheckpointerPeriodicAndFinal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	srv, _ := smallServerCfg(t, "RR", true, func(cfg *Config) {
		cfg.CheckpointPath, cfg.CheckpointInterval = path, 20*time.Millisecond
	})
	deadline := time.After(2 * time.Second)
	for srv.ckptSaves.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("no periodic checkpoint within 2s")
		case <-time.After(5 * time.Millisecond):
		}
	}
	// The periodic saver stops with the server, and the stop writes one
	// final checkpoint, once.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	saves := srv.ckptSaves.Load()
	if err := os.Remove(path); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}
	time.Sleep(60 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if srv.ckptSaves.Load() != saves {
		t.Error("checkpoints written after Close returned")
	}
	// Without an interval there is nothing to run the saver on.
	if _, err := New(Config{Zone: "x", ServerAddrs: srv.cfg.ServerAddrs, Policy: srv.cfg.Policy, CheckpointPath: path}); err == nil ||
		!strings.Contains(err.Error(), "CheckpointInterval") {
		t.Errorf("a checkpoint path without an interval: %v", err)
	}
}

func TestPanicRecoveryInHandler(t *testing.T) {
	cluster, err := core.ScaledCluster(3, 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	state, err := core.NewState(cluster, 4)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := core.NewPolicy(core.PolicyConfig{Name: "RR", State: state})
	if err != nil {
		t.Fatal(err)
	}
	addrs := []netip.Addr{
		netip.AddrFrom4([4]byte{10, 1, 0, 1}),
		netip.AddrFrom4([4]byte{10, 1, 0, 2}),
		netip.AddrFrom4([4]byte{10, 1, 0, 3}),
	}
	boom := 2 // panic on the first two queries, then behave
	srv, err := New(Config{
		Zone:        "www.site.example",
		ServerAddrs: addrs,
		Policy:      policy,
		Addr:        "127.0.0.1:0",
		Mapper: func(addr netip.Addr) int {
			if boom > 0 {
				boom--
				panic("mapper exploded")
			}
			return 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	r := resolverFor(t, srv)
	r.Timeout = 200 * time.Millisecond
	ctx := context.Background()
	// The panicking queries are dropped (timeout), but the workers
	// survive and the next query is answered.
	var answered bool
	for i := 0; i < 10 && !answered; i++ {
		if answers, err := r.LookupA(ctx, "www.site.example"); err == nil && len(answers) == 1 {
			answered = true
		}
	}
	if !answered {
		t.Fatal("server never recovered after handler panics")
	}
	if srv.panics.Load() == 0 {
		t.Error("panics = 0, want > 0")
	}
}

func TestShutdownGraceful(t *testing.T) {
	srv, _ := smallServer(t, "RR")
	r := resolverFor(t, srv)
	if _, err := r.LookupA(context.Background(), "www.site.example"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// Idempotent with Close (Cleanup runs it again).
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownEndsIdleTCPConn: a TCP connection waiting between
// exchanges has nothing in flight for a graceful shutdown to wait for.
// It used to hold Shutdown until the context ran out.
func TestShutdownEndsIdleTCPConn(t *testing.T) {
	srv, _ := smallServer(t, "RR")
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One exchange, so that the connection is known accepted and back in
	// its read.
	if _, err := conn.Write(frameTCP(testQueryWire(t))); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := readTCPResponse(conn); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown with an idle TCP connection: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("Shutdown waited %v for an idle TCP connection", took)
	}
	if n := srv.tcpConns.Load(); n != 0 {
		t.Errorf("%d TCP connections still served after Shutdown", n)
	}
}

// TestRestoreKeepsHiddenLoadWindow: a member that was not draining at
// save time keeps its hidden-load window across a restart, so a drain
// issued right after the restore still waits for every TTL handed out
// before it.
func TestRestoreKeepsHiddenLoadWindow(t *testing.T) {
	srv, _ := smallServerKind(t, "RR", "", false)
	srv.noteMapping(1, 600)
	cp := srv.Checkpoint()
	want := cp.Servers[1].ExpiresAt
	if cp.Servers[1].Draining || !want.After(time.Now().Add(590*time.Second)) {
		t.Fatalf("checkpointed slot 1: draining=%v window ends %v, want a 600 s window",
			cp.Servers[1].Draining, want)
	}

	srv2, _ := smallServerKind(t, "RR", "", false)
	if err := srv2.RestoreCheckpoint(cp, time.Hour); err != nil {
		t.Fatal(err)
	}
	if got := srv2.MappingExpiry(1); got.Before(want.Add(-time.Millisecond)) {
		t.Errorf("restored hidden-load window ends %v, want %v", got, want)
	}
	deadline, err := srv2.Drain(1)
	if err != nil {
		t.Fatal(err)
	}
	if deadline.Before(want.Add(-time.Millisecond)) {
		t.Errorf("drain after restore ends %v, before the saved window %v", deadline, want)
	}
}

func TestCheckpointRevivedSlotStartsClean(t *testing.T) {
	// A checkpointed slot that was retired at save time but re-joined
	// before restore — possibly with a different capacity — must not
	// inherit the retired incarnation's standing: the restore skips it
	// entirely and the new incarnation stays clean.
	srv, _ := smallServer(t, "RR")
	cp := srv.Checkpoint()
	// Simulate the retired incarnation: at save time, 10.1.0.3 was out
	// of membership with stale flags and an open hidden-load window.
	cp.Servers[2].Member = false
	cp.Servers[2].Capacity = 250
	cp.Servers[2].Alarmed = true
	cp.Servers[2].Down = true
	cp.Servers[2].Draining = true
	cp.Servers[2].ExpiresAt = time.Now().Add(time.Hour)

	// On the restoring server, retire the address and re-join it with a
	// different capacity before applying the checkpoint.
	srv2, state2 := smallServer(t, "RR")
	if _, err := srv2.Drain(2); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for state2.Snapshot().Member(2) {
		select {
		case <-deadline:
			t.Fatal("drained slot 2 was not removed within 5s")
		case <-time.After(5 * time.Millisecond):
		}
	}
	idx, err := srv2.Join(netip.AddrFrom4([4]byte{10, 1, 0, 3}), 999)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 {
		t.Fatalf("re-join reclaimed slot %d, want 2", idx)
	}

	if err := srv2.RestoreCheckpoint(cp, time.Hour); err != nil {
		t.Fatal(err)
	}
	sn := state2.Snapshot()
	if !sn.Member(2) {
		t.Error("revived slot lost membership on restore")
	}
	if got := sn.Cluster().Capacity(2); got != 999 {
		t.Errorf("revived slot capacity = %v, want the re-joined 999 (not the checkpointed 250)", got)
	}
	if sn.Alarmed(2) || sn.Down(2) || sn.Draining(2) {
		t.Errorf("revived slot inherited retired standing: alarmed=%v down=%v draining=%v",
			sn.Alarmed(2), sn.Down(2), sn.Draining(2))
	}
	if !srv2.MappingExpiry(2).IsZero() {
		t.Error("revived slot inherited the retired incarnation's hidden-load window")
	}
}

// TestDrainWithoutMappingsRetiresInTheCall: a server that was never handed
// a mapping holds no hidden load, so its drain retires it before Drain
// returns, with the deadline now.
func TestDrainWithoutMappingsRetiresInTheCall(t *testing.T) {
	srv, state, clk := manualServer(t, "RR", false, func(*Config) {})
	deadline, err := srv.Drain(1)
	if err != nil {
		t.Fatal(err)
	}
	if !deadline.Equal(clk.Time(clk.Now())) {
		t.Errorf("drain deadline %v, want now (%v)", deadline, clk.Time(clk.Now()))
	}
	if sn := state.Snapshot(); sn.Member(1) || sn.Draining(1) || srv.removals.Load() != 1 {
		t.Errorf("after Drain: member %v, draining %v, removals %d; want retired", sn.Member(1), sn.Draining(1), srv.removals.Load())
	}
}

// TestDrainSweepWaitsForLaterDeadline: a decision in flight when the drain
// started may land after it and move the window; Retire then names the
// later deadline, and the sweep retires the server there and not before.
func TestDrainSweepWaitsForLaterDeadline(t *testing.T) {
	srv, state, clk := manualServer(t, "RR", false, func(*Config) {})
	t0 := clk.Now()
	srv.noteMapping(1, 10)
	deadline, err := srv.Drain(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := clk.Seconds(deadline); got != t0+10 {
		t.Fatalf("drain deadline %v, want %v", got, t0+10)
	}
	srv.noteMapping(1, 15) // the in-flight decision
	for _, at := range []float64{t0 + 10, t0 + 15 - 0.001} {
		clk.Set(at)
		srv.retireDrained()
		if !state.Snapshot().Member(1) {
			t.Fatalf("retired at %v, before the later deadline %v", at, t0+15)
		}
	}
	clk.Set(t0 + 15)
	srv.retireDrained()
	if state.Snapshot().Member(1) {
		t.Error("still a member at the later deadline")
	}
}

// TestGossipDrainIsNotRetiredLocally: a drain that reaches a replica only
// by gossip stops its new mappings there too, but only the replica that
// started it retires the server.
func TestGossipDrainIsNotRetiredLocally(t *testing.T) {
	replica := func(id string) (*Server, *core.State, *engine.ManualClock) {
		return manualServer(t, "RR", false, func(cfg *Config) {
			cfg.Replication = ReplicationConfig{ReplicaID: id, Peers: []string{"127.0.0.1:1"}}
		})
	}
	a, stateA, clkA := replica("a")
	b, stateB, clkB := replica("b")
	a.noteMapping(1, 10)
	if _, err := a.Drain(1); err != nil {
		t.Fatal(err)
	}
	for _, d := range a.replNode.Flush() {
		if _, err := b.replNode.Merge(d); err != nil {
			t.Fatal(err)
		}
	}
	if !stateB.Snapshot().Draining(1) {
		t.Fatal("the gossiped drain did not reach replica b")
	}
	for _, clk := range []*engine.ManualClock{clkA, clkB} {
		clk.Set(clk.Now() + 60)
	}
	b.retireDrained()
	a.retireDrained()
	if sn := stateB.Snapshot(); !sn.Member(1) || !sn.Draining(1) {
		t.Errorf("replica b retired a drain it only heard of: member %v, draining %v", sn.Member(1), sn.Draining(1))
	}
	if stateA.Snapshot().Member(1) {
		t.Error("replica a did not retire its own drain")
	}
}

// TestFailedStartAndShutdownRetireNothing: a drain restored by a Start
// whose bind fails is not retired by a server that never ran, and a
// stopped server's pending drain outlives its deadline.
func TestFailedStartAndShutdownRetireNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	srv, state, clk := manualServer(t, "RR", true, func(*Config) {})
	srv.noteMapping(1, 10)
	if _, err := srv.Drain(1); err != nil {
		t.Fatal(err)
	}
	if err := srv.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	clk.Set(clk.Now() + 60)
	srv.retireDrained()
	if !state.Snapshot().Member(1) || srv.removals.Load() != 0 {
		t.Error("a stopped server retired a drain")
	}

	busy, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	cold, coldState, coldClk := manualServer(t, "RR", false, func(cfg *Config) {
		cfg.Addr = busy.LocalAddr().String()
		cfg.CheckpointPath, cfg.CheckpointInterval = path, time.Hour
	})
	coldClk.Set(clk.Now()) // the restored window has closed
	if err := cold.Start(); err == nil {
		t.Fatal("Start on a busy address succeeded")
	}
	if sn := coldState.Snapshot(); !sn.Member(1) || !sn.Draining(1) || cold.removals.Load() != 0 {
		t.Errorf("after a failed Start: member %v, draining %v, removals %d; want the restored drain pending",
			sn.Member(1), sn.Draining(1), cold.removals.Load())
	}
}

// TestDrainOutlastsWireTTL: a drain waits at least as long as the TTL
// the client read off the wire. DRR2-TTL/S_K on a heterogeneous cluster
// with Zipf weights hands out fractional TTLs; for each domain one answer
// goes out, and draining the server it names must not end before the
// answer's wire TTL lapses. The server runs on a ManualClock.
func TestDrainOutlastsWireTTL(t *testing.T) {
	roundsUp := false // a TTL whose nearest whole second is longer
	for domain := 0; domain < 20; domain++ {
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
		clk := &engine.ManualClock{}
		clk.Set(100)
		policy, err := core.NewPolicy(core.PolicyConfig{
			Name: "DRR2-TTL/S_K", State: state, Rand: simcore.NewStream(1, "wire-ttl"), Now: clk.Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		addrs := make([]netip.Addr, 7)
		for i := range addrs {
			addrs[i] = netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)})
		}
		srv, err := newServer(Config{
			Zone: "www.site.example", ServerAddrs: addrs, Policy: policy,
			Mapper: func(netip.Addr) int { return domain },
		}, clk)
		if err != nil {
			t.Fatal(err)
		}
		handout := clk.Now()
		resp := askA(t, srv)
		server, ttl := answerServer(t, resp), resp.Answers[0].TTL
		deadline, err := srv.Drain(server)
		if err != nil {
			t.Fatal(err)
		}
		window := clk.Seconds(deadline) - handout
		if window < float64(ttl) {
			t.Errorf("domain %d: the drain of server %d ends %v s after the handout, the answer's wire TTL is %d s",
				domain, server, window, ttl)
		}
		roundsUp = roundsUp || math.Round(window) > window
		_ = srv.Close()
	}
	if !roundsUp {
		t.Fatal("no TTL would round up to a longer whole second: the test exercises nothing")
	}
}
