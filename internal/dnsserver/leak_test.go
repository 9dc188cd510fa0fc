package dnsserver

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dnslb/internal/dnsclient"
	"dnslb/internal/probe"
)

// checkGoroutines runs f and asserts the goroutine count returns to
// (near) its baseline afterwards — a dependency-free stand-in for
// goleak, catching serve loops that outlive Close.
func checkGoroutines(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	before := runtime.NumGoroutine()
	f(t)
	deadline := time.Now().Add(3 * time.Second)
	var after int
	for time.Now().Before(deadline) {
		runtime.GC()
		after = runtime.NumGoroutine()
		if after <= before+1 {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, after)
}

func TestServerCloseStopsGoroutines(t *testing.T) {
	checkGoroutines(t, func(t *testing.T) {
		srv, _ := testServer(t, "RR", nil)
		r := &dnsclient.Resolver{Server: srv.Addr().String(), Timeout: 2 * time.Second}
		if _, err := r.LookupA(context.Background(), "www.site.example"); err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLifecycleEveryComponent runs a server with every component
// configured — report socket, liveness, probing (a dead target),
// replication (an unreachable peer), checkpointing, DoH, the metrics and
// pprof ports — and stops it with an idle connection open on each stream
// listener: Shutdown returns well within its deadline, no goroutine outlives it, report intake has
// ended before the drain timers were cancelled, and the final
// checkpoint, written last, restores into a fresh server. The periodic
// checkpoint is configured with an interval no test run reaches, so the
// one save counted is Shutdown's own (TestCheckpointerPeriodicAndFinal
// covers the periodic saver): a periodic save landing between the count
// and the stop cannot pass for it.
func TestLifecycleEveryComponent(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "state.json")
	const tick = 20 * time.Millisecond
	checkGoroutines(t, func(t *testing.T) {
		srv, state := testServerCfg(t, "RR", func(cfg *Config) {
			cfg.HTTPAddr, cfg.MetricsAddr, cfg.PprofAddr = "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"
			cfg.LivenessK, cfg.LivenessInterval = 1000, tick
			cfg.Probe = probe.Config{Targets: make([]probe.Target, 7), Interval: tick, Timeout: tick}
			cfg.Probe.Targets[6].Addr = "127.0.0.1:1"
			cfg.Replication = ReplicationConfig{ReplicaID: "lifecycle", Peers: []string{"127.0.0.1:1"}, Interval: tick}
			cfg.CheckpointPath, cfg.CheckpointInterval = ckpt, time.Hour
		})
		if _, err := resolverFor(t, srv).LookupA(context.Background(), "www.site.example"); err != nil {
			t.Fatal(err)
		}
		var idle [5]net.Conn // report, TCP, DoH, metrics, pprof
		for i, addr := range []net.Addr{srv.ReportAddr(), srv.Addr(), srv.httpLn.Addr(), srv.MetricsAddr(), srv.pprofLn.Addr()} {
			conn, err := net.Dial("tcp", addr.String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			idle[i] = conn
		}
		// The report connection is accepted and served before it idles.
		if resp := roundTrip(t, idle[0], "ALARM 1 1"); resp != "OK\n" {
			t.Fatalf("response = %q", resp)
		}
		waitCond(t, 2*time.Second, func() bool { return srv.probeDown(6) }, "the prober never ran")
		if n := srv.ckptSaves.Load(); n != 0 {
			t.Fatalf("%d checkpoints written before Shutdown", n)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		start := time.Now()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("Shutdown took %v with five idle connections open", elapsed)
		}
		if n := srv.ckptSaves.Load(); n != 1 {
			t.Errorf("%d checkpoints written by Shutdown, want the final one", n)
		}
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("second Shutdown: %v", err)
		}

		// A report line after the stop gets no reply and arms no timer.
		_, _ = fmt.Fprintln(idle[0], "DRAIN 2")
		_ = idle[0].SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		if n, _ := idle[0].Read(make([]byte, 16)); n != 0 {
			t.Error("a DRAIN written after Shutdown was answered")
		}
		srv.reconfigMu.Lock()
		timers := len(srv.drainTimers)
		srv.reconfigMu.Unlock()
		if timers != 0 || state.Snapshot().Draining(2) {
			t.Errorf("after Shutdown: %d drain timers armed, server 2 draining = %v", timers, state.Snapshot().Draining(2))
		}
	})

	cp, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	fresh, _ := testServerNoStart(t, "RR")
	if err := fresh.RestoreCheckpoint(cp, time.Hour); err != nil {
		t.Fatal(err)
	}
	if sn := fresh.policy.State().Snapshot(); !sn.Alarmed(1) || !sn.Down(6) {
		t.Errorf("restored: alarmed(1) = %v, down(6) = %v; want what the stopped server knew", sn.Alarmed(1), sn.Down(6))
	}
}

// freePortPair returns a loopback address whose port was free on UDP and
// TCP alike a moment ago: it binds both on one port, retrying with a
// fresh UDP port when an unrelated TCP socket holds it, and releases them.
func freePortPair(t *testing.T) string {
	t.Helper()
	const pairAttempts = 16
	for attempt := 0; ; attempt++ {
		udp, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := udp.LocalAddr().String()
		tcp, err := net.Listen("tcp", addr)
		_ = udp.Close()
		if err == nil {
			_ = tcp.Close()
			return addr
		}
		if attempt == pairAttempts-1 {
			t.Fatal(err)
		}
	}
}

// TestStartFailureLeavesNothingBehind: the pprof port is the last to
// bind; when its port is taken Start returns that error with the DNS
// sockets released and nothing running, and the Close that follows does
// not write a never-started server's cold state over the checkpoint file.
// The DNS port is free only when picked: if another process takes it
// before Start binds it, the attempt is repeated on a fresh pair.
func TestStartFailureLeavesNothingBehind(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	var dnsAddr string
	ckpt := filepath.Join(t.TempDir(), "state.json")
	base, _ := testServerNoStart(t, "RR")
	checkGoroutines(t, func(t *testing.T) {
		const startAttempts = 8
		for attempt := 1; ; attempt++ {
			dnsAddr = freePortPair(t)
			cfg := base.cfg
			cfg.Addr, cfg.HTTPAddr, cfg.ReportAddr = dnsAddr, "127.0.0.1:0", "127.0.0.1:0"
			cfg.MetricsAddr, cfg.PprofAddr = "127.0.0.1:0", held.Addr().String()
			cfg.LivenessK, cfg.LivenessInterval = 3, time.Second
			cfg.CheckpointPath, cfg.CheckpointInterval = ckpt, time.Second
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = srv.Start()
			dnsTaken := err != nil && (strings.Contains(err.Error(), "listen udp") || strings.Contains(err.Error(), "listen tcp"))
			if dnsTaken && attempt < startAttempts {
				_ = srv.Close()
				continue
			}
			if err == nil || !strings.Contains(err.Error(), "listen pprof") {
				t.Fatalf("Start = %v, want the pprof bind's error", err)
			}
			if err := srv.Close(); err != nil {
				t.Errorf("Close after a failed Start: %v", err)
			}
			return
		}
	})
	udp, err := net.ListenPacket("udp", dnsAddr)
	if err != nil {
		t.Errorf("DNS UDP port still held after the failed Start: %v", err)
	} else {
		_ = udp.Close()
	}
	tcp, err := net.Listen("tcp", dnsAddr)
	if err != nil {
		t.Errorf("DNS TCP port still held after the failed Start: %v", err)
	} else {
		_ = tcp.Close()
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("checkpoint file after a Start that never ran: %v", err)
	}
}

func TestServerCloseWithOpenTCPConn(t *testing.T) {
	// A TCP client that connected but never sent anything must not
	// block Close (the idle deadline and listener close cover it).
	checkGoroutines(t, func(t *testing.T) {
		srv, _ := testServer(t, "RR", nil)
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		start := time.Now()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("Close blocked for %v on an idle TCP conn", elapsed)
		}
	})
}
