package dnsserver

import (
	"net"
	"strings"
	"testing"
	"time"

	"dnslb/internal/probe"
)

// waitCond polls cond until it holds or the deadline passes.
func waitCond(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestVoteCombination exercises the detector-combination rule directly:
// down when any detector votes down, up only when every detector has
// withdrawn its vote.
func TestVoteCombination(t *testing.T) {
	srv, _ := testServerNoStart(t, "RR")

	// Single detector degenerates to that detector's standing.
	if err := srv.voteDown(detectorPassive, 1, true); err != nil {
		t.Fatal(err)
	}
	if !srv.policy.State().Snapshot().Down(1) {
		t.Fatal("passive vote alone should mark down")
	}
	if err := srv.voteDown(detectorPassive, 1, false); err != nil {
		t.Fatal(err)
	}
	if srv.policy.State().Snapshot().Down(1) {
		t.Fatal("withdrawn passive vote should re-admit")
	}

	// Two detectors: either marks down, both must agree to revive.
	_ = srv.voteDown(detectorPassive, 2, true)
	if !srv.policy.State().Snapshot().Down(2) {
		t.Fatal("passive vote should mark down")
	}
	_ = srv.voteDown(detectorActive, 2, true)
	if !srv.policy.State().Snapshot().Down(2) {
		t.Fatal("both votes should keep down")
	}
	_ = srv.voteDown(detectorPassive, 2, false)
	if !srv.policy.State().Snapshot().Down(2) {
		t.Fatal("active vote still held: server must stay down")
	}
	if !srv.votes.holds(detectorActive, 2) || srv.votes.holds(detectorPassive, 2) {
		t.Fatal("vote ledger inconsistent")
	}
	_ = srv.voteDown(detectorActive, 2, false)
	if srv.policy.State().Snapshot().Down(2) {
		t.Fatal("all votes withdrawn: server must be up")
	}

	// Re-voting the same standing is idempotent (no transition churn).
	before := srv.policy.State().DownTransitions()
	_ = srv.voteDown(detectorActive, 3, true)
	_ = srv.voteDown(detectorActive, 3, true)
	_ = srv.voteDown(detectorPassive, 3, true)
	after := srv.policy.State().DownTransitions()
	if got := after - before; got != 1 {
		t.Fatalf("three redundant down votes caused %d transitions, want 1", got)
	}

	// Out-of-range slots are rejected by the engine.
	if err := srv.voteDown(detectorPassive, 99, true); err == nil {
		t.Fatal("out-of-range vote accepted")
	}
}

// TestStartProbingDetectsCrashAndRevives runs a real prober against
// real listeners: closing a backend's listener must mark the slot down
// via the active vote, and restoring it must re-admit the slot (the
// passive detector never voted).
func TestStartProbingDetectsCrashAndRevives(t *testing.T) {
	// Backends for slots 0 and 1; the remaining slots are unprobed.
	listeners := make([]net.Listener, 2)
	targets := make([]probe.Target, 7)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func(ln net.Listener) {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				c.Close()
			}
		}(ln)
		listeners[i] = ln
		targets[i] = probe.Target{Addr: ln.Addr().String()}
	}

	srv, _ := testServerCfg(t, "RR", func(cfg *Config) {
		cfg.Probe = probe.Config{
			Targets:  targets,
			Interval: 20 * time.Millisecond,
			Timeout:  200 * time.Millisecond,
			FailN:    2,
			RiseM:    2,
			Seed:     1,
		}
	})
	waitCond(t, 2*time.Second, func() bool { return srv.prober.Stats()[0].Probes >= 3 }, "probes not running")
	for i := 0; i < srv.Servers(); i++ {
		if srv.policy.State().Snapshot().Down(i) {
			t.Fatalf("server %d down with healthy backends", i)
		}
	}

	// Crash backend 1.
	addr := listeners[1].Addr().String()
	listeners[1].Close()
	waitCond(t, 2*time.Second, func() bool { return srv.policy.State().Snapshot().Down(1) }, "crashed backend never excluded")
	if !srv.probeDown(1) {
		t.Fatal("probeDown(1) should report the active detector's vote")
	}
	if srv.policy.State().Snapshot().Down(0) {
		t.Fatal("healthy backend excluded")
	}

	// Restore it on the same address: rise-M successes re-admit.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	waitCond(t, 3*time.Second, func() bool { return !srv.policy.State().Snapshot().Down(1) }, "restored backend never re-admitted")
}

// TestProbeReviveWaitsForPassiveAgreement: with both detectors voting
// down, a probe recovery alone must not re-admit the backend.
func TestProbeReviveWaitsForPassiveAgreement(t *testing.T) {
	targets := make([]probe.Target, 7)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	addr := ln.Addr().String()
	targets[0] = probe.Target{Addr: addr}
	srv, _ := testServerCfg(t, "RR", func(cfg *Config) {
		cfg.Probe = probe.Config{
			Targets:  targets,
			Interval: 20 * time.Millisecond,
			Timeout:  200 * time.Millisecond,
			FailN:    2,
			RiseM:    1,
			Seed:     1,
		}
	})

	// Passive detector (simulated) votes down, then the backend "dies".
	_ = srv.voteDown(detectorPassive, 0, true)
	ln.Close()
	waitCond(t, 2*time.Second, func() bool { return srv.probeDown(0) }, "probe never failed")
	if !srv.policy.State().Snapshot().Down(0) {
		t.Fatal("server should be down")
	}

	// Backend comes back: the probe revives, but the passive vote holds.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	defer ln2.Close()
	go func() {
		for {
			c, err := ln2.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	waitCond(t, 3*time.Second, func() bool { return !srv.probeDown(0) }, "probe never recovered")
	if !srv.policy.State().Snapshot().Down(0) {
		t.Fatal("probe recovery alone re-admitted the server despite the passive vote")
	}

	// Passive agreement (a report arriving) completes the revival.
	_ = srv.voteDown(detectorPassive, 0, false)
	if srv.policy.State().Snapshot().Down(0) {
		t.Fatal("both detectors agree up; server still down")
	}
}

func TestStartProbingValidation(t *testing.T) {
	srv, _ := testServerNoStart(t, "RR")
	cfg := srv.cfg
	cfg.Probe.Targets = []probe.Target{{Addr: "1.2.3.4:80"}}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "1 Probe.Targets for 7 servers") {
		t.Fatalf("target/slot count mismatch: %v", err)
	}
	// The prober's own rules are probe.New's, and refuse the server too.
	cfg.Probe.Targets = make([]probe.Target, 7)
	cfg.Probe.Targets[2].Addr = "no-port"
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "probe:") {
		t.Fatalf("target without a port: %v", err)
	}
	cfg.Probe = probe.Config{Targets: make([]probe.Target, 7), Interval: time.Hour}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if srv.probeDown(0) {
		t.Fatal("all-empty targets should never be down")
	}
}
