package backend

import (
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"sync"
	"testing"
	"time"

	"dnslb/internal/chaos"
	"dnslb/internal/core"
	"dnslb/internal/dnsserver"
	"dnslb/internal/simcore"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Capacity: 0, Domains: 1}); err == nil {
		t.Error("zero capacity should error")
	}
	if _, err := New(Config{Capacity: 10, Domains: 0}); err == nil {
		t.Error("zero domains should error")
	}
	if _, err := New(Config{Capacity: 10, Domains: 1, AlarmThreshold: 2}); err == nil {
		t.Error("bad threshold should error")
	}
}

func startBackend(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestServesAndCounts(t *testing.T) {
	s := startBackend(t, Config{Capacity: 1000, Domains: 4, Simulate: true})
	base := fmt.Sprintf("http://%s", s.Addr())
	body := get(t, base+"/?hits=5&domain=2")
	if body != "served 5 hit(s) for domain 2\n" {
		t.Errorf("body = %q", body)
	}
	get(t, base+"/") // defaults: 1 hit, domain 0
	if got := s.TotalHits(); got != 6 {
		t.Errorf("TotalHits = %d, want 6", got)
	}
}

func TestHeadersOverrideDefaults(t *testing.T) {
	s := startBackend(t, Config{Capacity: 1000, Domains: 4, Simulate: true})
	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("http://%s/", s.Addr()), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Hits", "7")
	req.Header.Set("X-Domain", "3")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if string(body) != "served 7 hit(s) for domain 3\n" {
		t.Errorf("body = %q", body)
	}
}

func TestQueueingLatency(t *testing.T) {
	// Capacity 100 hits/s, a 20-hit request = 200 ms service time; with
	// Simulate off the response must take at least that long.
	s := startBackend(t, Config{Capacity: 100, Domains: 1})
	start := time.Now()
	get(t, fmt.Sprintf("http://%s/?hits=20", s.Addr()))
	if elapsed := time.Since(start); elapsed < 180*time.Millisecond {
		t.Errorf("request returned after %v, want >= ~200ms of service time", elapsed)
	}
}

func TestUtilizationTracksLoad(t *testing.T) {
	s := startBackend(t, Config{Capacity: 100, Domains: 1, Simulate: true,
		UtilizationInterval: time.Hour}) // agent stays out of the way
	// 30 hits = 300 ms of work.
	get(t, fmt.Sprintf("http://%s/?hits=30", s.Addr()))
	time.Sleep(150 * time.Millisecond)
	u := s.Utilization()
	if u < 0.5 || u > 1 {
		t.Errorf("mid-burst utilization = %v, want high", u)
	}
	time.Sleep(400 * time.Millisecond)
	u = s.Utilization()
	if u > 0.8 {
		t.Errorf("post-drain utilization = %v, want decaying", u)
	}
}

// TestConcurrentRequestsShareOneQueue drives the one queue from several
// request goroutines while the agent closes windows and a reader polls
// the live gauge: no hit is lost and every reading stays in [0, 1].
func TestConcurrentRequestsShareOneQueue(t *testing.T) {
	s := startBackend(t, Config{Capacity: 1000, Domains: 2, Simulate: true,
		UtilizationInterval: 5 * time.Millisecond})
	const senders, requests = 4, 25
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if u := s.Utilization(); u < 0 || u > 1 {
				t.Errorf("live utilization %v outside [0, 1]", u)
			}
		}
	}()
	var wg sync.WaitGroup
	wg.Add(senders)
	for g := range senders {
		go func() {
			defer wg.Done()
			for range requests {
				resp, err := http.Get(fmt.Sprintf("http://%s/?hits=2&domain=%d", s.Addr(), g%2))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if got, want := s.TotalHits(), uint64(senders*requests*2); got != want {
		t.Errorf("TotalHits = %d, want %d", got, want)
	}
}

// startDNS builds a DNS server with a report socket, for integration,
// and returns the socket's address and the scheduler state behind the
// DNS.
func startDNS(t *testing.T) (string, *core.State) {
	return startDNSState(t, func(*dnsserver.Config) {})
}

// startDNSState also exposes the configuration to edits before the
// server is built.
func startDNSState(t *testing.T, edit func(*dnsserver.Config)) (string, *core.State) {
	t.Helper()
	cluster, err := core.NewCluster([]float64{100, 50})
	if err != nil {
		t.Fatal(err)
	}
	state, err := core.NewState(cluster, 4)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := core.NewPolicy(core.PolicyConfig{
		Name:  "PRR2-TTL/K",
		State: state,
		Rand:  simcore.NewStream(1, "backend-test"),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := dnsserver.Config{
		Zone: "www.b.test",
		ServerAddrs: []netip.Addr{
			netip.MustParseAddr("10.7.0.1"),
			netip.MustParseAddr("10.7.0.2"),
		},
		Policy:     policy,
		Addr:       "127.0.0.1:0",
		ReportAddr: "127.0.0.1:0",
	}
	edit(&cfg)
	srv, err := dnsserver.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv.ReportAddr().String(), state
}

func TestAgentReportsAlarmToDNS(t *testing.T) {
	rl, state := startDNS(t)
	s := startBackend(t, Config{
		Capacity:            50,
		Domains:             4,
		Simulate:            true,
		ServerIndex:         1,
		ReportAddr:          rl,
		UtilizationInterval: 50 * time.Millisecond,
		AlarmThreshold:      0.5,
	})
	// Saturate: 1000 hits = 20 s of work at capacity 50.
	get(t, fmt.Sprintf("http://%s/?hits=1000&domain=1", s.Addr()))

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if state.Snapshot().Alarmed(1) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !state.Snapshot().Alarmed(1) {
		t.Fatal("backend alarm never reached the DNS scheduler state")
	}
}

func TestAgentFeedsHiddenLoadEstimates(t *testing.T) {
	rl, state := startDNS(t)
	s := startBackend(t, Config{
		Capacity:            10000,
		Domains:             4,
		Simulate:            true,
		ReportAddr:          rl,
		UtilizationInterval: 50 * time.Millisecond,
	})
	// Domain 2 sends the bulk of the traffic.
	base := fmt.Sprintf("http://%s", s.Addr())
	for i := 0; i < 30; i++ {
		get(t, base+"/?hits=100&domain=2")
	}
	get(t, base+"/?hits=10&domain=0")

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if state.Snapshot().Weight(2) > 0.5 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if w := state.Snapshot().Weight(2); w <= 0.5 {
		t.Fatalf("estimated weight of domain 2 = %v, want dominant", w)
	}
}

func TestAgentSurvivesReportOutage(t *testing.T) {
	// Acceptance path for the live failure model: cut the path to the
	// report socket, watch the liveness monitor exclude the backend, heal
	// it, and watch the agent's backoff redial re-admit it — including
	// the alarm transition that happened while disconnected.
	report, state := startDNSState(t, func(cfg *dnsserver.Config) {
		cfg.LivenessInterval, cfg.LivenessK = 40*time.Millisecond, 2
	})
	link, err := chaos.NewTCPProxy("127.0.0.1:0", report)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = link.Close() })

	addr := link.Addr()
	s := startBackend(t, Config{
		Capacity:            50,
		Domains:             4,
		Simulate:            true,
		ServerIndex:         1,
		ReportAddr:          addr,
		UtilizationInterval: 25 * time.Millisecond,
		AlarmThreshold:      0.5,
	})

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatal(what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	waitFor("backend never marked live by its own heartbeats", func() bool {
		return !state.Snapshot().Down(1)
	})
	link.Cut()
	waitFor("silent backend never excluded after the report path was cut", func() bool {
		return state.Snapshot().Down(1)
	})

	// Alarm flips while the feedback channel is down: that transition
	// line is lost with the cycle, so only the reconnect resync can
	// deliver it.
	get(t, fmt.Sprintf("http://%s/?hits=10000&domain=1", s.Addr()))
	waitFor("backend never alarmed locally", s.Alarmed)

	link.Heal()
	waitFor("backend never re-admitted after the report path healed", func() bool {
		return !state.Snapshot().Down(1)
	})
	waitFor("alarm state not resynced after reconnect", func() bool {
		return state.Snapshot().Alarmed(1)
	})
}

func TestSelfRegistrationAndRetire(t *testing.T) {
	rl, state := startDNS(t)

	s := startBackend(t, Config{
		Capacity:            500,
		Domains:             4,
		Simulate:            true,
		ReportAddr:          rl,
		AdvertiseAddr:       "10.7.0.50",
		RetireOnClose:       true,
		UtilizationInterval: 25 * time.Millisecond,
	})
	if got := s.ServerIndex(); got != -1 {
		t.Fatalf("pre-join ServerIndex = %d, want -1", got)
	}

	deadline := time.Now().Add(3 * time.Second)
	for s.ServerIndex() < 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	idx := s.ServerIndex()
	if idx != 2 {
		t.Fatalf("joined index = %d, want fresh slot 2", idx)
	}
	if !state.Snapshot().Member(idx) {
		t.Fatal("joined backend not a cluster member")
	}

	// Graceful retirement: Close sends DRAIN, the DNS starts draining.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if sn := state.Snapshot(); !sn.Draining(idx) && sn.Member(idx) {
		t.Error("closed backend neither draining nor removed")
	}
}

func TestAdvertiseValidation(t *testing.T) {
	if _, err := New(Config{Capacity: 10, Domains: 1, AdvertiseAddr: "not-an-ip"}); err == nil {
		t.Error("bad advertise address should error")
	}
	if _, err := New(Config{Capacity: 10, Domains: 1, AdvertiseAddr: "2001:db8::1"}); err == nil {
		t.Error("IPv6 advertise address should error")
	}
}

func TestCloseIdempotent(t *testing.T) {
	s := startBackend(t, Config{Capacity: 100, Domains: 1, Simulate: true})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseBeforeStart(t *testing.T) {
	s, err := New(Config{Capacity: 100, Domains: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close before Start should be a no-op, got %v", err)
	}
}
