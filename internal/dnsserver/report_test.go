package dnsserver

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/netip"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dnslb/internal/core"
	"dnslb/internal/dnsclient"
	"dnslb/internal/simcore"
)

// sendReports writes lines and returns each response line.
func sendReports(t *testing.T, addr string, lines ...string) []string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	r := bufio.NewReader(conn)
	var out []string
	for _, line := range lines {
		if _, err := fmt.Fprintln(conn, line); err != nil {
			t.Fatal(err)
		}
		resp, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, resp)
	}
	return out
}

func TestReportAlarmProtocol(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)

	resp := sendReports(t, srv.ReportAddr().String(), "ALARM 2 1")
	if resp[0] != "OK\n" {
		t.Fatalf("response = %q", resp[0])
	}
	if !srv.policy.State().Snapshot().Alarmed(2) {
		t.Error("alarm not applied")
	}
	resp = sendReports(t, srv.ReportAddr().String(), "ALARM 2 0")
	if resp[0] != "OK\n" || srv.policy.State().Snapshot().Alarmed(2) {
		t.Error("alarm not cleared")
	}
}

func TestReportHitsAndRoll(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)

	lines := []string{"HITS 7 900"}
	for j := 0; j < 20; j++ {
		if j != 7 {
			lines = append(lines, fmt.Sprintf("HITS %d 10", j))
		}
	}
	lines = append(lines, "ROLL 60")
	for i, resp := range sendReports(t, srv.ReportAddr().String(), lines...) {
		if resp != "OK\n" {
			t.Fatalf("line %d response = %q", i, resp)
		}
	}
	// Weights now reflect the reported skew: domain 7 dominates.
	if srv.policy.State().Snapshot().Weight(7) < 0.5 {
		t.Errorf("estimated weight of domain 7 = %v, want dominant", srv.policy.State().Snapshot().Weight(7))
	}
}

func TestReportErrors(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)
	resps := sendReports(t, srv.ReportAddr().String(),
		"BOGUS 1 2",
		"ALARM x 1",
		"ALARM 1 7",
		"ALARM 1",
		"HITS 1 -5",
		"HITS 1",
		"ROLL 0",
		"ROLL",
		"HITS 0 NaN",
		"HITS 0 Inf",
		"ROLL NaN",
		"HITS 20 10", // the test server has 20 domains
		"HITS -1 10",
	)
	for i, resp := range resps {
		if len(resp) < 3 || resp[:3] != "ERR" {
			t.Errorf("line %d: response %q, want ERR", i, resp)
		}
	}
}

// TestReportNaNCannotPoisonEstimator: one non-finite hit count used to
// turn the EWMA rate NaN for good, so that every later ROLL failed (the
// weights froze) and every checkpoint failed (JSON has no NaN). The
// report parser refuses the line, and the estimator refuses the value
// when it arrives some other way.
func TestReportNaNCannotPoisonEstimator(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)
	addr := srv.ReportAddr().String()
	sendReports(t, addr, "HITS 0 NaN")
	rejected := srv.eng.EstimatorRejected()
	srv.RecordHits(0, math.NaN())
	if srv.eng.EstimatorRejected() != rejected+1 {
		t.Error("estimator accepted a NaN hit count")
	}
	if resp := sendReports(t, addr, "HITS 1 50", "ROLL 8"); resp[1] != "OK\n" {
		t.Fatalf("ROLL after a NaN report answered %q", resp[1])
	}
	for j := 0; j < 20; j++ {
		if w := srv.policy.State().Snapshot().Weight(j); math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatalf("domain %d weight %v", j, w)
		}
	}
	if err := srv.WriteCheckpoint(filepath.Join(t.TempDir(), "ckpt.json")); err != nil {
		t.Fatalf("checkpoint after a NaN report: %v", err)
	}
}

// FuzzReportLines fuzzes the report-line parser, the one parser that
// faces unauthenticated input: up to eight lines go through applyReport
// on a fresh server (New binds nothing), under either estimator kind.
// Each line must be answered OK or ERR on one line without a panic, and
// no sequence may leave a weight non-finite or the state unwritable as
// a checkpoint.
func FuzzReportLines(f *testing.F) {
	for _, seed := range []string{
		"ALIVE 0\nALARM 1 1\nALARM 1 0",
		"HITS 3 120\nHITS 7 4.5\nROLL 8",
		"HITS 0 NaN\nROLL 8",
		"HITS 0 1e300\nROLL NaN\nROLL 1e-300",
		"HITS 0 1e308\nHITS 1 1e308\nROLL 1\nROLL 1", // forecast errors sum past MaxFloat64
		"JOIN 10.0.0.99 120\nDRAIN 7",
		"REPL {}",
		"HITS 20 10\nHITS -1 10\nROLL Inf",
		"BOGUS 1 2\nALARM x 1",
	} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, input string, predictive bool) {
		srv := fuzzReportServer(t, predictive)
		defer srv.Close()
		lines := strings.Split(input, "\n")
		for _, line := range lines[:min(len(lines), 8)] {
			if line = strings.TrimSpace(line); line == "" {
				continue // serveReport skips blank lines
			}
			reply, err := srv.applyReport(line)
			if err != nil {
				reply = err.Error()
			}
			if strings.ContainsAny(reply, "\r\n") {
				t.Fatalf("line %q: reply %q breaks the one-line framing", line, reply)
			}
		}
		for j := 0; j < srv.policy.State().Snapshot().Domains(); j++ {
			if w := srv.policy.State().Snapshot().Weight(j); math.IsNaN(w) || math.IsInf(w, 0) {
				t.Fatalf("domain %d weight %v after %q", j, w, input)
			}
		}
		if _, err := json.Marshal(srv.Checkpoint()); err != nil {
			t.Fatalf("checkpoint after %q: %v", input, err)
		}
	})
}

// fuzzReportServer is a 7-server, 20-domain server that binds nothing.
func fuzzReportServer(t testing.TB, predictive bool) *Server {
	cluster, err := core.ScaledCluster(7, 50, 500)
	if err != nil {
		t.Fatal(err)
	}
	state, err := core.NewState(cluster, 20)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := core.NewPolicy(core.PolicyConfig{Name: "DRR2-TTL/S_K", State: state, Rand: simcore.NewStream(1, "report")})
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]netip.Addr, 7)
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)})
	}
	cfg := Config{Zone: "www.site.example", ServerAddrs: addrs, Policy: policy}
	if predictive {
		cfg.Estimator = core.EstimatorPredictive
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestReportDrivenSchedulingEndToEnd(t *testing.T) {
	// Alarm a server over the report socket; DNS answers must avoid it.
	srv, _ := testServer(t, "RR", nil)
	sendReports(t, srv.ReportAddr().String(), "ALARM 0 1")

	r := &dnsclient.Resolver{Server: srv.Addr().String(), Timeout: 2 * time.Second}
	excluded := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	for i := 0; i < 14; i++ {
		answers, err := r.LookupA(t.Context(), "www.site.example")
		if err != nil {
			t.Fatal(err)
		}
		if answers[0].Addr == excluded {
			t.Fatal("alarmed server still answered")
		}
	}
}

func roundTrip(t *testing.T, conn net.Conn, line string) string {
	t.Helper()
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := fmt.Fprintln(conn, line); err != nil {
		t.Fatal(err)
	}
	resp, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestReportAlarmOutOfRange(t *testing.T) {
	// An out-of-range server index must come back as ERR over the wire,
	// not be silently swallowed.
	srv, _ := testServer(t, "RR", nil)
	resps := sendReports(t, srv.ReportAddr().String(), "ALARM 99 1", "ALARM -1 0")
	for i, resp := range resps {
		if len(resp) < 3 || resp[:3] != "ERR" {
			t.Errorf("line %d: response %q, want ERR", i, resp)
		}
	}
}

func TestReportAliveProtocol(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)
	resps := sendReports(t, srv.ReportAddr().String(),
		"ALIVE 3",
		"ALIVE 99",
		"ALIVE x",
		"ALIVE",
	)
	if resps[0] != "OK\n" {
		t.Errorf("ALIVE 3 response = %q", resps[0])
	}
	for i, resp := range resps[1:] {
		if len(resp) < 3 || resp[:3] != "ERR" {
			t.Errorf("line %d: response %q, want ERR", i+1, resp)
		}
	}
}

func TestReportOversizedLine(t *testing.T) {
	// A line beyond bufio.Scanner's 64 KiB token limit must get the
	// client disconnected with an error, and the listener must keep
	// serving new connections afterwards.
	srv, _ := testServer(t, "RR", nil)

	conn, err := net.Dial("tcp", srv.ReportAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	huge := make([]byte, 80*1024)
	for i := range huge {
		huge[i] = 'A'
	}
	huge = append(huge, '\n')
	if _, err := conn.Write(huge); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	resp, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) < 3 || resp[:3] != "ERR" {
		t.Errorf("oversized line response = %q, want ERR", resp)
	}
	// The connection is gone after the protocol violation.
	if _, err := r.ReadString('\n'); err == nil {
		t.Error("connection still open after oversized line")
	}
	// Fresh connections still work.
	if resp := sendReports(t, srv.ReportAddr().String(), "ALARM 1 1"); resp[0] != "OK\n" {
		t.Errorf("post-violation response = %q", resp[0])
	}
}

func TestReportTruncatedWrite(t *testing.T) {
	// A client that dies mid-line must not wedge the listener or apply
	// the partial command.
	srv, _ := testServer(t, "RR", nil)

	conn, err := net.Dial("tcp", srv.ReportAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("ALARM 2")); err != nil { // no newline
		t.Fatal(err)
	}
	_ = conn.Close()

	// The listener still answers other clients, and the torn line was
	// parsed as an (incomplete) command, not applied as an alarm.
	deadline := time.Now().Add(2 * time.Second)
	for srv.policy.State().Snapshot().Alarmed(2) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.policy.State().Snapshot().Alarmed(2) {
		t.Error("truncated ALARM line was applied")
	}
	if resp := sendReports(t, srv.ReportAddr().String(), "ALARM 2 1"); resp[0] != "OK\n" {
		t.Errorf("response after truncated client = %q", resp[0])
	}
}

func TestReportConcurrentBackends(t *testing.T) {
	// Many backends reporting ALARM/HITS/ROLL/ALIVE at once: every line
	// is answered and the listener state stays consistent (run with
	// -race to check for data races).
	srv, _ := testServer(t, "RR", nil)

	const backends = 8
	var wg sync.WaitGroup
	errc := make(chan error, backends)
	for b := 0; b < backends; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", srv.ReportAddr().String())
			if err != nil {
				errc <- err
				return
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			r := bufio.NewReader(conn)
			for i := 0; i < 50; i++ {
				lines := []string{
					fmt.Sprintf("ALIVE %d", b%7),
					fmt.Sprintf("ALARM %d %d", b%7, i%2),
					fmt.Sprintf("HITS %d 10", i%20),
					"ROLL 8",
				}
				for _, line := range lines {
					if _, err := fmt.Fprintln(conn, line); err != nil {
						errc <- err
						return
					}
					resp, err := r.ReadString('\n')
					if err != nil {
						errc <- err
						return
					}
					if resp != "OK\n" {
						errc <- fmt.Errorf("backend %d: %q -> %q", b, line, resp)
						return
					}
				}
			}
		}(b)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
