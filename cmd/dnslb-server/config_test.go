package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"dnslb"
	"dnslb/internal/logging"
	"dnslb/internal/metrics"
)

func TestParseConfigFile(t *testing.T) {
	kvs, err := parseConfigFile([]byte(`
# dnslb-server configuration
zone       www.cfg.test   # inline comment
addr     = 127.0.0.1:5353
servers    10.0.0.1,10.0.0.2
capacities 100,80
report =
`))
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]string{
		{"zone", "www.cfg.test"},
		{"addr", "127.0.0.1:5353"},
		{"servers", "10.0.0.1,10.0.0.2"},
		{"capacities", "100,80"},
		{"report", ""},
	}
	if len(kvs) != len(want) {
		t.Fatalf("kvs = %v, want %v", kvs, want)
	}
	for i := range want {
		if kvs[i] != want[i] {
			t.Errorf("kvs[%d] = %v, want %v", i, kvs[i], want[i])
		}
	}
}

func TestParseConfigFileErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   string
	}{
		{"no value", "zone"},
		{"duplicate", "zone a\nzone b"},
		{"bad key", "9zone www"},
		{"key with space prefix", "= value"},
		{"self reference", "config other.conf"},
	} {
		if _, err := parseConfigFile([]byte(tc.in)); err == nil {
			t.Errorf("%s: no error for %q", tc.name, tc.in)
		}
	}
	// Comment-only and empty input parse to nothing.
	for _, in := range []string{"", "# just a comment\n\n"} {
		if kvs, err := parseConfigFile([]byte(in)); err != nil || len(kvs) != 0 {
			t.Errorf("%q: kvs=%v err=%v", in, kvs, err)
		}
	}
}

func TestApplyConfigFilePrecedence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dnslb.conf")
	if err := os.WriteFile(path, []byte("zone www.file.test\ndomains 7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	zone := fs.String("zone", "www.default.test", "")
	domains := fs.Int("domains", 20, "")
	// -zone given on the command line beats the file; -domains comes
	// from the file.
	if err := fs.Parse([]string{"-zone", "www.cli.test"}); err != nil {
		t.Fatal(err)
	}
	if err := applyConfigFile(fs, path); err != nil {
		t.Fatal(err)
	}
	if *zone != "www.cli.test" {
		t.Errorf("zone = %q, want command-line value", *zone)
	}
	if *domains != 7 {
		t.Errorf("domains = %d, want 7 from file", *domains)
	}

	// Unknown settings and bad values are rejected.
	for _, content := range []string{"no-such-flag 1\n", "domains notanumber\n"} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
		fs2.Int("domains", 20, "")
		if err := applyConfigFile(fs2, path); err == nil {
			t.Errorf("%q: applyConfigFile accepted it", content)
		}
	}
}

func TestReloadConfigValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dnslb.conf")
	write := func(content string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	args := []string{"-config", path, "-zone", "www.x.test"}
	write("servers 10.6.0.1,10.6.0.2\nliveness-interval 8s\n")
	running, err := configure(args)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&log, nil))
	srv, reg := newTestServer(t)

	if err := reloadConfig([]string{"-config", filepath.Join(dir, "missing")}, running.flags, srv, logger); err == nil {
		t.Error("missing file: reloadConfig accepted it")
	}
	for _, tc := range []struct {
		name, content string
	}{
		{"parse error", "zone"},
		{"unknown key", "bogus 1"},
		{"no servers", "zone www.x.test"},
		{"bad servers", "servers not-an-ip"},
		// What start-up would refuse is refused whole, by the same rule
		// under the same name, though the file's server set is fine.
		{"-checkpoint-interval", "servers 10.6.0.1,10.6.0.3\ncheckpoint x\ncheckpoint-interval 0"},
	} {
		write(tc.content)
		err := reloadConfig(args, running.flags, srv, logger)
		if err == nil {
			t.Errorf("%s: reloadConfig accepted it", tc.name)
		} else if strings.HasPrefix(tc.name, "-") && !strings.Contains(err.Error(), tc.name) {
			t.Errorf("reload refused with %q, want the flag %s named", err, tc.name)
		}
	}
	var exposition strings.Builder
	if err := reg.WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	reloads, ok := findSample(exposition.String(), "dnslb_reconfig_reloads_total")
	if srv.Servers() != 2 || !ok || reloads != 0 {
		t.Errorf("refused reloads changed membership: %d slots, %v reloads", srv.Servers(), reloads)
	}

	// A restart-only setting is compared by value, not by spelling.
	write("servers 10.6.0.1,10.6.0.2\nliveness-interval 8000ms\n")
	if err := reloadConfig(args, running.flags, srv, logger); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(log.String(), "needs a restart") {
		t.Errorf("8000ms against a running 8s drew a warning:\n%s", log.String())
	}
	write("servers 10.6.0.1,10.6.0.2\nliveness-interval 9s\n")
	if err := reloadConfig(args, running.flags, srv, logger); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "needs a restart") || !strings.Contains(log.String(), "liveness-interval") {
		t.Errorf("a changed restart-only setting drew no warning:\n%s", log.String())
	}
}

// newTestServer builds a minimal unstarted DNS server for reload tests.
// newTestServer returns an unstarted server over 10.6.0.1 and 10.6.0.2
// and the registry its metrics series are in.
func newTestServer(t *testing.T) (*dnslb.DNSServer, *metrics.Registry) {
	t.Helper()
	cluster, err := dnslb.NewCluster([]float64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	state, err := dnslb.NewState(cluster, 4)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := dnslb.NewPolicy(dnslb.PolicyConfig{Name: "RR", State: state})
	if err != nil {
		t.Fatal(err)
	}
	addrs, _, err := parseServers("10.6.0.1,10.6.0.2", "")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	srv, err := dnslb.NewDNSServer(dnslb.DNSServerConfig{
		Zone:        "www.x.test",
		ServerAddrs: addrs,
		Policy:      pol,
		Addr:        "127.0.0.1:0",
		Logger:      logging.Discard(),
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, reg
}

func FuzzParseConfigFile(f *testing.F) {
	f.Add([]byte("zone www.site.example\nservers 10.0.0.1,10.0.0.2\n"))
	f.Add([]byte("# comment\naddr = 127.0.0.1:5353\n"))
	f.Add([]byte("key\x00 value"))
	f.Add([]byte("a ="))
	f.Add([]byte(strings.Repeat("k v\n", 100)))
	f.Fuzz(func(t *testing.T, data []byte) {
		kvs, err := parseConfigFile(data)
		if err != nil {
			return
		}
		seen := make(map[string]bool)
		for _, kv := range kvs {
			if !validConfigKey(kv[0]) {
				t.Fatalf("accepted invalid key %q", kv[0])
			}
			if seen[kv[0]] {
				t.Fatalf("accepted duplicate key %q", kv[0])
			}
			seen[kv[0]] = true
			if strings.ContainsAny(kv[1], "\n\r") {
				t.Fatalf("value crosses lines: %q", kv[1])
			}
		}
	})
}

// startRun launches run() with the given args and waits for its
// listeners; the returned stop function shuts it down and reports
// run's error.
func startRun(t *testing.T, args []string) (boundAddrs, func() error) {
	t.Helper()
	stop := make(chan struct{})
	addrs := make(chan boundAddrs, 1)
	errc := make(chan error, 1)
	// The default report port is the DNS port + 1, which beside an
	// ephemeral DNS port is often some client socket's: bind a free one
	// unless the test names its own (a later flag wins).
	args = append([]string{"-report", "127.0.0.1:0"}, args...)
	go func() { errc <- run(args, stop, func(b boundAddrs) { addrs <- b }) }()
	select {
	case b := <-addrs:
		var once sync.Once
		var err error
		stopFn := func() error {
			once.Do(func() {
				close(stop)
				select {
				case err = <-errc:
				case <-time.After(10 * time.Second):
					err = fmt.Errorf("server did not shut down")
				}
			})
			return err
		}
		t.Cleanup(func() { _ = stopFn() })
		return b, stopFn
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server did not start")
	}
	return boundAddrs{}, nil
}

// scrape fetches and returns the exposition text from a metrics
// endpoint.
func scrape(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// findSample is sampleValue without the fatal: it reports whether the
// series exists.
func findSample(text, series string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}

// waitForSample polls the metrics endpoint until the series reaches at
// least want.
func waitForSample(t *testing.T, addr, series string, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := findSample(scrape(t, addr), series); ok && v >= want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("series %s never reached %v", series, want)
}

// TestRunSIGHUPReloadUnderLoad is the zero-downtime reconfiguration
// end-to-end test: a server started from a config file keeps answering
// every query while SIGHUP swaps one backend for another — the removed
// address drains (no new mappings), the added address starts taking
// traffic, and not a single query fails.
func TestRunSIGHUPReloadUnderLoad(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "dnslb.conf")
	writeCfg := func(servers string) {
		content := "zone www.reload.test\npolicy RR\ndomains 4\nservers " + servers + "\n"
		if err := os.WriteFile(cfgPath, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeCfg("10.9.1.1,10.9.1.2")

	bound, stopFn := startRun(t, []string{
		"-config", cfgPath,
		"-addr", "127.0.0.1:0",
		"-metrics-addr", "127.0.0.1:0",
		"-log-level", "error",
	})

	r := &dnslb.Resolver{Server: bound.DNS, Timeout: 2 * time.Second}
	lookup := func() (string, error) {
		answers, err := r.LookupA(context.Background(), "www.reload.test")
		if err != nil {
			return "", err
		}
		if len(answers) != 1 {
			return "", fmt.Errorf("answers = %+v", answers)
		}
		return answers[0].Addr.String(), nil
	}

	// Warm up both backends with real mappings so the removed one has
	// an open hidden-load window — otherwise the drain completes (and
	// the slot retires) the moment it starts.
	for i := 0; i < 6; i++ {
		if _, err := lookup(); err != nil {
			t.Fatal(err)
		}
	}

	// Continuous query load across the reload; every failure counts.
	var failures atomic.Int64
	loadStop := make(chan struct{})
	var wg sync.WaitGroup
	var stopOnce sync.Once
	stopLoad := func() {
		stopOnce.Do(func() { close(loadStop) })
		wg.Wait()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-loadStop:
					return
				default:
				}
				if _, err := lookup(); err != nil {
					failures.Add(1)
					t.Errorf("query failed during reload: %v", err)
					return
				}
			}
		}()
	}
	// A test that fails early must not leave the load calling t.Errorf
	// after it returned.
	t.Cleanup(stopLoad)

	// Swap 10.9.1.1 for 10.9.1.3 and reload in place.
	writeCfg("10.9.1.2,10.9.1.3")
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	waitForSample(t, bound.Metrics, "dnslb_reconfig_reloads_total", 1)

	// After the reload is applied, the drained address must never be
	// scheduled again and the joined address must start taking traffic.
	seen := make(map[string]bool)
	for i := 0; i < 40; i++ {
		addr, err := lookup()
		if err != nil {
			t.Fatal(err)
		}
		seen[addr] = true
	}
	if seen["10.9.1.1"] {
		t.Error("drained server 10.9.1.1 still receives new mappings")
	}
	if !seen["10.9.1.3"] {
		t.Error("joined server 10.9.1.3 never scheduled")
	}
	if !seen["10.9.1.2"] {
		t.Error("kept server 10.9.1.2 never scheduled")
	}

	stopLoad()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d queries failed across the reload", n)
	}

	text := scrape(t, bound.Metrics)
	if v, _ := findSample(text, "dnslb_reconfig_joins_total"); v < 1 {
		t.Errorf("joins_total = %v, want >= 1", v)
	}
	if v, _ := findSample(text, "dnslb_reconfig_drains_total"); v < 1 {
		t.Errorf("drains_total = %v, want >= 1", v)
	}
	if v, ok := findSample(text, `dnslb_state_server_draining{server="0"}`); !ok || v != 1 {
		t.Errorf("draining gauge for slot 0 = %v (ok=%v), want 1", v, ok)
	}

	if err := stopFn(); err != nil {
		t.Fatalf("run returned %v", err)
	}
}

// TestRunCheckpointRestart restarts the whole command and checks the
// learned standing survives: an alarm raised in the first life is
// still raised in the second, restored from the shutdown checkpoint. A
// corrupted checkpoint must cold-start cleanly.
func TestRunCheckpointRestart(t *testing.T) {
	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "state.ckpt")
	args := []string{
		"-zone", "www.ckpt.test",
		"-addr", "127.0.0.1:0",
		"-servers", "10.9.2.1,10.9.2.2",
		"-policy", "RR",
		"-domains", "4",
		"-checkpoint", ckptPath,
		"-checkpoint-interval", "50ms",
		"-metrics-addr", "127.0.0.1:0",
		"-log-level", "error",
	}

	// First life: raise an alarm on server 0, then shut down.
	bound, stopFn := startRun(t, args)
	sendReport(t, bound.Report, "ALARM 0 1")
	waitForSample(t, bound.Metrics, `dnslb_state_server_alarmed{server="0"}`, 1)
	if err := stopFn(); err != nil {
		t.Fatalf("first run returned %v", err)
	}

	cp, err := dnslb.LoadCheckpoint(ckptPath)
	if err != nil {
		t.Fatalf("shutdown checkpoint unreadable: %v", err)
	}
	if len(cp.Servers) != 2 || !cp.Servers[0].Alarmed || cp.Servers[1].Alarmed {
		t.Fatalf("checkpoint alarms wrong: %+v", cp.Servers)
	}

	// Second life: the restored alarm shows up without any report.
	bound, stopFn = startRun(t, args)
	if v, ok := findSample(scrape(t, bound.Metrics), `dnslb_state_server_alarmed{server="0"}`); !ok || v != 1 {
		t.Errorf("restored alarm gauge = %v (ok=%v), want 1", v, ok)
	}
	if err := stopFn(); err != nil {
		t.Fatalf("second run returned %v", err)
	}

	// Corrupt checkpoint: the server still starts, cold.
	if err := os.WriteFile(ckptPath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	bound, stopFn = startRun(t, args)
	if v, ok := findSample(scrape(t, bound.Metrics), `dnslb_state_server_alarmed{server="0"}`); !ok || v != 0 {
		t.Errorf("cold-start alarm gauge = %v (ok=%v), want 0", v, ok)
	}
	if err := stopFn(); err != nil {
		t.Fatalf("third run returned %v", err)
	}
}

// sendReport delivers one report line and requires an OK response.
func sendReport(t *testing.T, addr, line string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintln(conn, line)
	buf := make([]byte, 16)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(buf[:n]), "OK") {
		t.Fatalf("report response = %q", buf[:n])
	}
}
