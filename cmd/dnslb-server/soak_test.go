package main

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"dnslb"
	"dnslb/internal/chaos"
	"dnslb/internal/dnswire"
)

// healthEndpoint is a minimal HTTP probe target: every connection gets
// a 200 status line. (An HTTP probe is required behind a chaos TCP
// proxy — a cut proxy still completes the TCP handshake before
// severing, which a connect-only probe would mistake for health.)
func healthEndpoint(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				buf := make([]byte, 512)
				_, _ = c.Read(buf)
				_, _ = c.Write([]byte("HTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n"))
				_ = c.Close()
			}(c)
		}
	}()
	t.Cleanup(func() { _ = ln.Close() })
	return ln
}

// lookupRetry resolves through a lossy path, retrying timeouts caused
// by injected drops. Only the last error is reported.
func lookupRetry(t *testing.T, r *dnslb.Resolver, name string) []dnslb.AnswerA {
	t.Helper()
	var lastErr error
	for attempt := 0; attempt < 6; attempt++ {
		answers, err := r.LookupA(context.Background(), name)
		if err == nil {
			return answers
		}
		lastErr = err
	}
	t.Fatalf("lookup %s never succeeded through chaos proxy: %v", name, lastErr)
	return nil
}

// waitMetric polls a metrics endpoint until the series reaches want.
func waitMetric(t *testing.T, metricsAddr, series string, want float64, timeout time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	deadline := start.Add(timeout)
	for time.Now().Before(deadline) {
		if scrapeValue(metricsAddr, series) == want {
			return time.Since(start)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("series %s never reached %v within %v (last %v)",
		series, want, timeout, scrapeValue(metricsAddr, series))
	return 0
}

// TestChaosSoak runs the full server behind chaos proxies through a
// backend crash, recovery, and a query blast, asserting the robustness
// invariants end to end:
//
//   - a crashed backend is excluded by the active prober well inside
//     the passive k-missed-reports bound, with the passive detector
//     never firing (its reports keep flowing throughout);
//   - no answer after the exclusion names the dead backend's address;
//   - under a blast of several thousand queries a second the policy
//     keeps answering every lookup — zero SERVFAIL.
//
// Run under -race in CI (chaos-soak job).
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("long: multi-phase chaos soak")
	}

	// Three fake backends, each probed through its own cuttable proxy.
	backends := make([]net.Listener, 3)
	proxies := make([]*chaos.TCPProxy, 3)
	targets := ""
	for i := range backends {
		backends[i] = healthEndpoint(t)
		p, err := chaos.NewTCPProxy("127.0.0.1:0", backends[i].Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		proxies[i] = p
		if i > 0 {
			targets += ","
		}
		targets += p.Addr()
	}

	const (
		livenessK  = 3
		livenessIv = 5 * time.Second // passive bound: 15 s
	)
	stop := make(chan struct{})
	addrs := make(chan boundAddrs, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{
			"-zone", "www.soak.test",
			"-addr", "127.0.0.1:0",
			"-report", "127.0.0.1:0", // not DNS port + 1: it may be taken
			"-servers", "10.7.0.1,10.7.0.2,10.7.0.3",
			"-capacities", "100,100,50",
			"-policy", "DRR2-TTL/S_K",
			"-domains", "4",
			"-metrics-addr", "127.0.0.1:0",
			"-probe", "http=/healthz,interval=50ms,timeout=250ms,fail=3,rise=2",
			"-probe-targets", targets,
			"-liveness-k", fmt.Sprint(livenessK),
			"-liveness-interval", livenessIv.String(),
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
	defer func() {
		close(stop)
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("run returned %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("server did not shut down")
		}
	}()

	// Keep passive liveness fed for ALL backends for the whole test, so
	// any exclusion can only come from the active prober.
	feederDone := make(chan struct{})
	feederStop := make(chan struct{})
	go func() {
		defer close(feederDone)
		for {
			select {
			case <-feederStop:
				return
			case <-time.After(500 * time.Millisecond):
			}
			conn, err := net.Dial("tcp", bound.Report)
			if err != nil {
				continue
			}
			buf := make([]byte, 16)
			for i := 0; i < 3; i++ {
				fmt.Fprintf(conn, "ALIVE %d\n", i)
				_, _ = conn.Read(buf)
			}
			_ = conn.Close()
		}
	}()
	defer func() { close(feederStop); <-feederDone }()

	// Clients reach DNS through a lossy, jittery UDP proxy.
	udp, err := chaos.NewUDPProxy("127.0.0.1:0", bound.DNS, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	if err := udp.SetFault(chaos.Fault{
		Drop: 0.05, Dup: 0.03, Delay: time.Millisecond, Jitter: 3 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	// A drop costs the lookup one timeout before lookupRetry asks again;
	// loopback answers in well under a millisecond, jitter included.
	r := &dnslb.Resolver{Server: udp.Addr(), Timeout: 100 * time.Millisecond}

	// Phase 1 — baseline under mild chaos: every answer is sane and all
	// three backends take traffic.
	seen := map[netip.Addr]int{}
	for i := 0; i < 40; i++ {
		for _, a := range lookupRetry(t, r, "www.soak.test") {
			if a.TTL <= 0 || a.TTL > 10*time.Minute {
				t.Fatalf("implausible TTL %v in baseline answer", a.TTL)
			}
			seen[a.Addr]++
		}
	}
	if len(seen) != 3 {
		t.Fatalf("baseline spread %v, want all 3 backends", seen)
	}

	// Phase 2 — crash backend 1's health endpoint. Its ALIVE reports
	// keep flowing, so only the prober can exclude it; fail-3 at a 50 ms
	// interval bounds detection far under the 15 s passive bound.
	dead := netip.MustParseAddr("10.7.0.2")
	proxies[1].Cut()
	elapsed := waitMetric(t, bound.Metrics, `dnslb_probe_down{server="1"}`, 1, 5*time.Second)
	if passiveBound := time.Duration(livenessK) * livenessIv; elapsed >= passiveBound {
		t.Errorf("probe detection took %v, not faster than the passive bound %v", elapsed, passiveBound)
	}
	if got := scrapeValue(bound.Metrics, `dnslb_liveness_exclusions_total{server="1"}`); got != 0 {
		t.Errorf("passive liveness fired (%v exclusions) while reports were flowing", got)
	}
	// No answer may name the dead address once it is excluded.
	waitMetric(t, bound.Metrics, `dnslb_state_server_down{server="1"}`, 1, 2*time.Second)
	for i := 0; i < 30; i++ {
		for _, a := range lookupRetry(t, r, "www.soak.test") {
			if a.Addr == dead {
				t.Fatalf("lookup %d returned crashed backend %v after exclusion", i, dead)
			}
		}
	}

	// Phase 3 — heal. The passive detector stayed up throughout, so the
	// prober's rise-2 agreement alone re-admits the backend.
	proxies[1].Heal()
	waitMetric(t, bound.Metrics, `dnslb_probe_down{server="1"}`, 0, 5*time.Second)
	waitMetric(t, bound.Metrics, `dnslb_state_server_down{server="1"}`, 0, 2*time.Second)

	// Phase 4 — blast raw queries straight at the server (past the lossy
	// proxy) and, once several thousand have arrived, resolve through it
	// directly: the policy answers every lookup and no query is answered
	// SERVFAIL.
	const blastMin = 5000
	servfailBefore := scrapeValue(bound.Metrics, `dnslb_dns_responses_total{outcome="servfail"}`)
	queriesBefore := scrapeValue(bound.Metrics, "dnslb_dns_queries_total")
	wire, err := (&dnswire.Message{
		Header: dnswire.Header{ID: 99, RecursionDesired: true},
		Questions: []dnswire.Question{
			{Name: "www.soak.test", Type: dnswire.TypeA, Class: dnswire.ClassIN},
		},
	}).Pack()
	if err != nil {
		t.Fatal(err)
	}
	blastStop := make(chan struct{})
	blastDone := make(chan struct{})
	go func() {
		defer close(blastDone)
		conn, err := net.Dial("udp", bound.DNS)
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			select {
			case <-blastStop:
				return
			default:
			}
			for i := 0; i < 100; i++ {
				_, _ = conn.Write(wire)
			}
			time.Sleep(10 * time.Millisecond) // ~10k qps
		}
	}()
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		got := scrapeValue(bound.Metrics, "dnslb_dns_queries_total")
		if got-queriesBefore >= blastMin {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dnslb_dns_queries_total rose %v -> %v during the blast, want at least %d more",
				queriesBefore, got, blastMin)
		}
	}
	direct := &dnslb.Resolver{Server: bound.DNS, Timeout: 2 * time.Second}
	for i := 0; i < 20; i++ {
		answers, err := direct.LookupA(context.Background(), "www.soak.test")
		if err != nil {
			t.Fatalf("lookup %d under the blast failed: %v", i, err)
		}
		if len(answers) == 0 {
			t.Fatalf("lookup %d under the blast returned no answer", i)
		}
	}
	close(blastStop)
	<-blastDone
	if got := scrapeValue(bound.Metrics, `dnslb_dns_responses_total{outcome="servfail"}`); got != servfailBefore {
		t.Errorf("SERVFAIL count moved %v -> %v under the blast", servfailBefore, got)
	}
}
