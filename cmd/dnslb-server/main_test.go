package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dnslb"
	"dnslb/internal/metrics"
)

func TestParseServers(t *testing.T) {
	addrs, caps, err := parseServers("10.0.0.1, 10.0.0.2,10.0.0.3", "100,80,50")
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 3 || addrs[1].String() != "10.0.0.2" {
		t.Errorf("addrs = %v", addrs)
	}
	if caps[0] != 100 || caps[2] != 50 {
		t.Errorf("caps = %v", caps)
	}
}

func TestParseServersDefaults(t *testing.T) {
	_, caps, err := parseServers("10.0.0.1,10.0.0.2", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range caps {
		if c != 100 {
			t.Errorf("default capacity = %v, want 100", c)
		}
	}
}

func TestParseServersErrors(t *testing.T) {
	if _, _, err := parseServers("not-an-ip", ""); err == nil {
		t.Error("bad address should error")
	}
	if _, _, err := parseServers("10.0.0.1,10.0.0.2", "100"); err == nil {
		t.Error("capacity count mismatch should error")
	}
	if _, _, err := parseServers("10.0.0.1", "abc"); err == nil {
		t.Error("bad capacity should error")
	}
}

func TestNextPort(t *testing.T) {
	if got := nextPort("127.0.0.1:5353"); got != "127.0.0.1:5354" {
		t.Errorf("nextPort = %q", got)
	}
	if got := nextPort("garbage"); got != "127.0.0.1:0" {
		t.Errorf("fallback = %q", got)
	}
}

// TestServerDependencies keeps the server binary to what it serves: its
// HTTP ports are the server's own framer, so no HTTP or TLS stack, and it
// assembles the server from the internal packages, not the facade that
// brings the simulator and the client side along.
func TestServerDependencies(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	deps := strings.Fields(string(out))
	if len(deps) == 0 {
		t.Fatal("go list -deps listed nothing")
	}
	for _, dep := range deps {
		switch dep {
		case "net/http", "crypto/tls", "dnslb", "dnslb/internal/sim", "dnslb/internal/experiments",
			"dnslb/internal/dnsclient", "dnslb/internal/backend":
			t.Errorf("dnslb-server links %s", dep)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	stop := make(chan struct{})
	addrs := make(chan boundAddrs, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{
			"-zone", "www.e2e.test",
			"-addr", "127.0.0.1:0",
			"-report", "127.0.0.1:0", // not DNS port + 1: it may be taken
			"-servers", "10.9.0.1,10.9.0.2",
			"-capacities", "100,50",
			"-policy", "DRR2-TTL/S_K",
			"-domains", "4",
			"-metrics-addr", "127.0.0.1:0",
			"-log-level", "error",
		}, stop, func(b boundAddrs) { addrs <- b })
	}()

	var bound boundAddrs
	select {
	case bound = <-addrs:
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server did not start")
	}

	r := &dnslb.Resolver{Server: bound.DNS, Timeout: 2 * time.Second}
	for i := 0; i < 5; i++ {
		answers, err := r.LookupA(context.Background(), "www.e2e.test")
		if err != nil {
			t.Fatal(err)
		}
		if len(answers) != 1 {
			t.Fatalf("answers = %+v", answers)
		}
	}
	// The report socket accepts an alarm.
	conn, err := net.Dial("tcp", bound.Report)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(conn, "ALARM 0 1")
	buf := make([]byte, 8)
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	if string(buf[:2]) != "OK" {
		t.Errorf("report response = %q", buf)
	}

	// /metrics serves valid exposition text with the live query, TTL,
	// per-server decision, liveness, and report series all moving.
	resp, err := http.Get("http://" + bound.Metrics + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	if n, err := metrics.CheckText(bytes.NewReader(body)); err != nil {
		t.Errorf("invalid exposition format: %v\n%s", err, body)
	} else if n == 0 {
		t.Error("no samples exposed")
	}
	text := string(body)
	queries := sampleValue(t, text, "dnslb_dns_queries_total")
	if queries < 5 {
		t.Errorf("dnslb_dns_queries_total = %v, want >= 5", queries)
	}
	ttlCount := sampleValue(t, text, "dnslb_dns_ttl_seconds_count")
	if ttlCount < 5 {
		t.Errorf("dnslb_dns_ttl_seconds_count = %v, want >= 5", ttlCount)
	}
	d0 := sampleValue(t, text, `dnslb_policy_decisions_total{policy="DRR2-TTL/S_K",server="0"}`)
	d1 := sampleValue(t, text, `dnslb_policy_decisions_total{policy="DRR2-TTL/S_K",server="1"}`)
	if d0+d1 < 5 {
		t.Errorf("per-server decisions = %v + %v, want >= 5", d0, d1)
	}
	if got := sampleValue(t, text, "dnslb_state_alarm_transitions_total"); got != 1 {
		t.Errorf("alarm transitions = %v, want 1", got)
	}
	if got := sampleValue(t, text, `dnslb_state_server_alarmed{server="0"}`); got != 1 {
		t.Errorf("server 0 alarmed gauge = %v, want 1", got)
	}
	if got := sampleValue(t, text, `dnslb_report_lines_total{status="ok"}`); got != 1 {
		t.Errorf("ok report lines = %v, want 1", got)
	}
	// Liveness series exist from the start (exclusions stay 0 here).
	if got := sampleValue(t, text, `dnslb_liveness_exclusions_total{server="1"}`); got != 0 {
		t.Errorf("exclusions = %v, want 0", got)
	}
	for _, series := range []string{
		`dnslb_liveness_report_age_seconds{server="0"}`,
		"dnslb_dns_query_duration_seconds_count",
		`dnslb_dns_responses_total{outcome="answered"}`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("series %s missing from exposition", series)
		}
	}

	close(stop)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// sampleValue extracts one sample's value from exposition text by its
// exact series name (including any label set).
func sampleValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("series %s has bad value %q", series, rest)
		}
		return v
	}
	t.Fatalf("series %s not found", series)
	return 0
}

func TestRunValidation(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	if err := run([]string{}, stop, nil); err == nil {
		t.Error("missing -servers should error")
	}
	if err := run([]string{"-servers", "10.0.0.1", "-policy", "nope"}, stop, nil); err == nil {
		t.Error("unknown policy should error")
	}
	// Capacities not sorted decreasing.
	if err := run([]string{"-servers", "10.0.0.1,10.0.0.2", "-capacities", "50,100"}, stop, nil); err == nil {
		t.Error("unsorted capacities should error")
	}
	// The estimator kind must fail at flag validation, not in startup.
	if err := run([]string{"-servers", "10.0.0.1", "-estimator", "bogus"}, stop, nil); err == nil ||
		!strings.Contains(err.Error(), "-estimator") {
		t.Errorf("unknown -estimator kind should fail validation, got %v", err)
	}
	// Probe flags come as a pair and the target list must match -servers.
	if err := run([]string{"-servers", "10.0.0.1", "-probe", "tcp"}, stop, nil); err == nil ||
		!strings.Contains(err.Error(), "-probe-targets") {
		t.Errorf("-probe without -probe-targets should fail, got %v", err)
	}
	if err := run([]string{"-servers", "10.0.0.1", "-probe-targets", "127.0.0.1:80"}, stop, nil); err == nil ||
		!strings.Contains(err.Error(), "-probe") {
		t.Errorf("-probe-targets without -probe should fail, got %v", err)
	}
	if err := run([]string{"-servers", "10.0.0.1,10.0.0.2", "-probe", "tcp",
		"-probe-targets", "127.0.0.1:80"}, stop, nil); err == nil ||
		!strings.Contains(err.Error(), "2 servers") {
		t.Errorf("probe target count mismatch should fail, got %v", err)
	}
	if err := run([]string{"-servers", "10.0.0.1", "-probe", "sonar",
		"-probe-targets", "127.0.0.1:80"}, stop, nil); err == nil ||
		!strings.Contains(err.Error(), "-probe") {
		t.Errorf("unknown probe kind should fail, got %v", err)
	}
	// NaN passes every ordered comparison; a NaN burst would let every
	// query through.
	if err := run([]string{"-servers", "10.0.0.1", "-qps", "1", "-burst", "NaN"}, stop, nil); err == nil ||
		!strings.Contains(err.Error(), "-burst") {
		t.Errorf("-burst NaN should fail validation naming the flag, got %v", err)
	}
}

// scrapeValue fetches a /metrics exposition and returns the named
// sample's value, or -1 when the series is absent.
func scrapeValue(metricsAddr, series string) float64 {
	resp, err := http.Get("http://" + metricsAddr + "/metrics")
	if err != nil {
		return -1
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
				return v
			}
		}
	}
	return -1
}

func TestRunTwoReplicaReplication(t *testing.T) {
	// Two dnslb-server processes (in-process run() calls) gossiping over
	// -peers: an alarm reported to replica A must surface in replica B's
	// scheduler through the REPL channel alone.
	reserve, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bReport := reserve.Addr().String()
	_ = reserve.Close()

	common := []string{
		"-zone", "www.repl.test",
		"-addr", "127.0.0.1:0",
		"-report", "127.0.0.1:0", // not DNS port + 1: it may be taken
		"-servers", "10.9.1.1,10.9.1.2",
		"-capacities", "100,50",
		"-policy", "DRR2-TTL/S_K",
		"-domains", "4",
		"-metrics-addr", "127.0.0.1:0",
		"-replication-interval", "50ms",
		"-liveness-k", "0",
		"-log-level", "error",
	}
	startReplica := func(extra ...string) (boundAddrs, chan struct{}, chan error) {
		t.Helper()
		stop := make(chan struct{})
		addrs := make(chan boundAddrs, 1)
		errc := make(chan error, 1)
		go func() {
			errc <- run(append(append([]string{}, common...), extra...), stop, func(b boundAddrs) { addrs <- b })
		}()
		select {
		case b := <-addrs:
			return b, stop, errc
		case err := <-errc:
			t.Fatalf("replica exited early: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatal("replica did not start")
		}
		panic("unreachable")
	}

	// A starts first, dialing B's (not yet bound) report port under
	// backoff; B then binds exactly there and peers back at A.
	a, stopA, errA := startReplica("-replica-id", "a", "-peers", bReport)
	b, stopB, errB := startReplica("-replica-id", "b", "-report", bReport, "-peers", a.Report)

	waitMetric := func(addr, series string, want float64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if scrapeValue(addr, series) == want {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("series %s on %s never reached %v (last %v)",
			series, addr, want, scrapeValue(addr, series))
	}
	waitMetric(a.Metrics, `dnslb_repl_connected_peers{replica="a"}`, 1)
	waitMetric(b.Metrics, `dnslb_repl_connected_peers{replica="b"}`, 1)

	conn, err := net.Dial("tcp", a.Report)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(conn, "ALARM 0 1")
	buf := make([]byte, 8)
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()

	// The alarm reported to A reaches B's scheduler via gossip.
	waitMetric(b.Metrics, `dnslb_state_server_alarmed{server="0"}`, 1)
	if v := scrapeValue(b.Metrics, `dnslb_repl_deltas_applied_total{replica="b"}`); v < 1 {
		t.Errorf("replica b applied %v deltas, want >= 1", v)
	}

	// Both replicas answer queries throughout.
	for _, dns := range []string{a.DNS, b.DNS} {
		r := &dnslb.Resolver{Server: dns, Timeout: 2 * time.Second}
		if _, err := r.LookupA(context.Background(), "www.repl.test"); err != nil {
			t.Errorf("query to %s: %v", dns, err)
		}
	}

	for _, s := range []struct {
		stop chan struct{}
		errc chan error
	}{{stopA, errA}, {stopB, errB}} {
		close(s.stop)
		select {
		case err := <-s.errc:
			if err != nil {
				t.Errorf("run returned %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("replica did not shut down")
		}
	}
}

// TestRunValidatesBeforeSideEffects: a configuration the server's rules
// refuse is refused before a socket is bound or the checkpoint file
// touched — the -addr here is taken, and it is not the bind that fails.
func TestRunValidatesBeforeSideEffects(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	ckpt := filepath.Join(t.TempDir(), "state.ckpt")
	stop := make(chan struct{})
	close(stop)
	for flagName, args := range map[string][]string{
		"-replica-id":          {"-peers", "127.0.0.1:9"},
		"-checkpoint-interval": {"-checkpoint", ckpt, "-checkpoint-interval", "0"},
	} {
		err := run(append([]string{"-servers", "10.0.0.1", "-addr", held.Addr().String(), "-log-level", "error"}, args...), stop, nil)
		if err == nil || !strings.Contains(err.Error(), flagName) || strings.Contains(err.Error(), "listen") {
			t.Errorf("%v: err = %v, want %s named before anything is bound", args, err, flagName)
		}
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("checkpoint file after a refused configuration: %v", err)
	}
}

func TestRunReplicationValidation(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	err := run([]string{"-servers", "10.0.0.1", "-peers", "127.0.0.1:9"}, stop, nil)
	if err == nil || !strings.Contains(err.Error(), "replica-id") {
		t.Errorf("-peers without -replica-id: err = %v, want replica-id requirement", err)
	}
}
