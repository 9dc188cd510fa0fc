package dnsserver

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"dnslb/internal/metrics"
)

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

// testServerLiveness is testServer with the passive detector configured.
func testServerLiveness(t *testing.T, interval time.Duration, k int) *Server {
	t.Helper()
	srv, _ := testServerCfg(t, "RR", func(cfg *Config) { cfg.LivenessInterval, cfg.LivenessK = interval, k })
	return srv
}

func TestLivenessMonitorValidation(t *testing.T) {
	srv, _ := testServerNoStart(t, "RR")
	cfg := srv.cfg
	cfg.LivenessK = 3 // and no interval
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "LivenessInterval") {
		t.Errorf("a k without an interval: %v, want it refused by name", err)
	}
	cfg.LivenessK, cfg.LivenessInterval = 0, -time.Second
	if s, err := New(cfg); err != nil || s.liveness != nil {
		t.Errorf("k = 0 means off whatever the interval: monitor %v, err %v", s.liveness, err)
	}
}

func TestLivenessDetectsSilentBackend(t *testing.T) {
	// Backends 0..6 exist; only backend 0 keeps reporting. After the
	// grace period the silent ones are marked down, the reporter stays.
	srv := testServerLiveness(t, 20*time.Millisecond, 2)

	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
				// Best effort: the listener may already be shut down
				// when the test body is done.
				if conn, err := net.Dial("tcp", srv.ReportAddr().String()); err == nil {
					fmt.Fprintln(conn, "ALIVE 0")
					_ = conn.SetReadDeadline(time.Now().Add(time.Second))
					_, _ = bufio.NewReader(conn).ReadString('\n')
					_ = conn.Close()
				}
			}
		}
	}()

	if !waitFor(t, 2*time.Second, func() bool { return srv.policy.State().Snapshot().Down(3) }) {
		t.Fatal("silent backend 3 never marked down")
	}
	if srv.policy.State().Snapshot().Down(0) {
		t.Error("reporting backend 0 marked down")
	}
	if !srv.votes.holds(detectorPassive, 3) || srv.votes.holds(detectorPassive, 0) {
		t.Error("passive vote disagrees with scheduler")
	}
}

func TestLivenessRecoveryOnReport(t *testing.T) {
	// A down backend is re-admitted the moment it reports again —
	// ALIVE and ALARM both count as proof of life.
	srv, state, clk := manualServer(t, "RR", true, func(cfg *Config) { cfg.LivenessK, cfg.LivenessInterval = 2, time.Second })
	clk.Set(clk.Now() + 3)
	srv.liveness.check()
	if sn := state.Snapshot(); !sn.Down(1) || !sn.Down(2) {
		t.Fatal("backends never marked down")
	}
	sendReports(t, srv.ReportAddr().String(), "ALIVE 1", "ALARM 2 0")
	if sn := state.Snapshot(); sn.Down(1) || sn.Down(2) {
		t.Error("reporting backends not re-admitted immediately")
	}
}

// TestRestoredDownBackend: a checkpoint restores a down backend as the
// passive detector's vote. Its next report withdraws that vote and
// re-admits it — unless the prober also votes it down, in which case it
// stays down until the prober agrees it is up.
func TestRestoredDownBackend(t *testing.T) {
	srv, _ := testServerNoStart(t, "RR")
	cp := srv.Checkpoint()
	cp.Servers[1].Down, cp.Servers[2].Down = true, true
	cfg := srv.cfg
	cfg.LivenessK, cfg.LivenessInterval = 3, time.Hour
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RestoreCheckpoint(cp, time.Hour); err != nil {
		t.Fatal(err)
	}
	if sn := srv.policy.State().Snapshot(); !sn.Down(1) || !sn.Down(2) {
		t.Fatal("restored down standing not applied")
	}
	_ = srv.voteDown(detectorActive, 2, true)

	srv.liveness.Touch(1)
	srv.liveness.Touch(2)
	if srv.policy.State().Snapshot().Down(1) {
		t.Error("restored backend not re-admitted by its report")
	}
	if !srv.policy.State().Snapshot().Down(2) {
		t.Fatal("a report re-admitted a backend the prober votes down")
	}
	_ = srv.voteDown(detectorActive, 2, false)
	if srv.policy.State().Snapshot().Down(2) {
		t.Error("backend still down with every vote withdrawn")
	}
}

// TestLivenessSilenceOfKIntervals: a backend silent for exactly k
// intervals of the engine clock is still in, one millisecond later it is
// excluded, and its next report re-admits it. The report-age gauge reads
// the same clock.
func TestLivenessSilenceOfKIntervals(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, state, clk := manualServer(t, "RR", false, func(cfg *Config) {
		cfg.LivenessK, cfg.LivenessInterval, cfg.Metrics = 2, 250*time.Millisecond, reg
	})
	t0 := clk.Now()
	clk.Set(t0 + 0.25)
	srv.liveness.Touch(0)
	clk.Set(t0 + 0.5)
	srv.liveness.check()
	if sn := state.Snapshot(); sn.Down(1) || sn.Down(2) {
		t.Fatal("backends silent for exactly k intervals excluded")
	}
	clk.Set(t0 + 0.501)
	srv.liveness.check()
	if sn := state.Snapshot(); !sn.Down(1) || !sn.Down(2) || sn.Down(0) {
		t.Fatalf("one millisecond past k intervals: down %v %v %v, want false true true", sn.Down(0), sn.Down(1), sn.Down(2))
	}
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	if age := seriesValue(t, text.String(), `dnslb_liveness_report_age_seconds{server="1"}`); math.Abs(age-0.501) > 1e-9 {
		t.Errorf("report age %v s, want 0.501", age)
	}
	srv.liveness.Touch(1)
	if state.Snapshot().Down(1) {
		t.Error("a report did not re-admit the backend")
	}
}
