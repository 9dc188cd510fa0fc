package dnsserver

import (
	"context"
	"io"
	"net/netip"
	"sync"
	"testing"
	"time"

	"dnslb/internal/core"
	"dnslb/internal/dnsclient"
	"dnslb/internal/dnswire"
	"dnslb/internal/metrics"
	"dnslb/internal/simcore"
)

// TestConcurrentQueries hammers the server from many goroutines over
// UDP while alarms and load reports mutate scheduler state — run with
// -race to verify the locking discipline.
func TestConcurrentQueries(t *testing.T) {
	srv, _ := testServer(t, "PRR2-TTL/K", nil)

	const (
		workers = 8
		queries = 30
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers+2)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &dnsclient.Resolver{Server: srv.Addr().String(), Timeout: 2 * time.Second}
			ctx := context.Background()
			for i := 0; i < queries; i++ {
				if _, err := r.LookupA(ctx, "www.site.example"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// Concurrent alarm flapping through the API...
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			srv.eng.SetAlarm(i%7, i%2 == 0)
			srv.RecordHits(i%20, 10)
		}
		if err := srv.eng.RollEstimates(8); err != nil {
			errs <- err
		}
	}()
	// ...and through the report socket.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sendReports(t, srv.ReportAddr().String(), "ALARM 3 1", "HITS 5 100", "ROLL 8", "ALARM 3 0")
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := srv.Stats()
	if st.Answered < workers*queries {
		t.Errorf("answered %d, want at least %d", st.Answered, workers*queries)
	}
}

// TestConcurrentClientsCountersExact fires many clients at a server
// running its GOMAXPROCS UDP workers and checks the books balance:
// every query is answered, the sharded serve counters sum to the
// number of queries sent, the policy's per-server decision counts sum
// to its decision total, and the A records the clients actually
// received match the policy's per-server ledger exactly.
func TestConcurrentClientsCountersExact(t *testing.T) {
	cluster, err := core.ScaledCluster(5, 35, 500)
	if err != nil {
		t.Fatal(err)
	}
	state, err := core.NewState(cluster, 8)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	policy, err := core.NewPolicy(core.PolicyConfig{
		Name:  "PRR2-TTL/K",
		State: state,
		Rand:  simcore.NewStream(1, "server"),
		Now:   func() float64 { return time.Since(start).Seconds() },
	})
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]netip.Addr, cluster.N())
	addrByServer := make(map[netip.Addr]int, cluster.N())
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)})
		addrByServer[addrs[i]] = i
	}
	srv, err := New(Config{
		Zone:        "www.site.example",
		ServerAddrs: addrs,
		Policy:      policy,
		Addr:        "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	const (
		clients   = 8
		perClient = 50
		totalSent = clients * perClient
	)
	got := make([]map[int]uint64, clients) // per-client server counts
	errs := make([]error, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			counts := make(map[int]uint64)
			r := &dnsclient.Resolver{Server: srv.Addr().String(), Timeout: 5 * time.Second}
			ctx := context.Background()
			for i := 0; i < perClient; i++ {
				msg, err := r.Exchange(ctx, "www.site.example", dnswire.TypeA)
				if err != nil {
					errs[c] = err
					return
				}
				a, ok := msg.Answers[0].Data.(dnswire.A)
				if !ok {
					t.Errorf("client %d: answer is %T, not A", c, msg.Answers[0].Data)
					return
				}
				counts[addrByServer[a.Addr]]++
			}
			got[c] = counts
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}

	perServer := make([]uint64, cluster.N())
	for _, counts := range got {
		for srvIdx, n := range counts {
			perServer[srvIdx] += n
		}
	}

	pstats := policy.Stats()
	if pstats.Decisions != totalSent {
		t.Errorf("policy decisions = %d, want %d", pstats.Decisions, totalSent)
	}
	var sum uint64
	for i, n := range pstats.PerServer {
		sum += n
		if n != perServer[i] {
			t.Errorf("server %d: policy counted %d decisions, clients received %d", i, n, perServer[i])
		}
	}
	if sum != pstats.Decisions {
		t.Errorf("sum(PerServer) = %d, want Decisions %d", sum, pstats.Decisions)
	}

	sstats := srv.Stats()
	if sstats.Queries != totalSent {
		t.Errorf("server queries = %d, want %d", sstats.Queries, totalSent)
	}
	if sstats.Answered != totalSent {
		t.Errorf("server answered = %d, want %d", sstats.Answered, totalSent)
	}
}

// TestControlPlaneConcurrent drives the control plane from several
// goroutines at once on a ManualClock one of them steps — joins and
// drains, the drain sweep, liveness reports and checks, metric scrapes —
// for -race to check the locks of the sweep and the liveness monitor.
// Every drain is this replica's own, so a sweep past every window leaves
// none pending.
func TestControlPlaneConcurrent(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, state, clk := manualServer(t, "RR", false, func(cfg *Config) {
		cfg.LivenessK, cfg.LivenessInterval, cfg.Metrics = 2, time.Second, reg
	})
	var wg sync.WaitGroup
	run := func(step func(k int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				step(k)
			}
		}()
	}
	run(func(k int) {
		i, err := srv.Join(netip.AddrFrom4([4]byte{10, 2, 0, byte(k % 16)}), 100)
		if err != nil {
			t.Error(err)
			return
		}
		srv.noteMapping(i, 0.5)
		_, _ = srv.Drain(i) // refused when i is the last schedulable server
	})
	run(func(int) { srv.retireDrained() })
	run(func(k int) {
		clk.Set(100 + float64(k)/100)
		srv.liveness.check()
	})
	run(func(k int) { srv.liveness.Touch(k % srv.Servers()) })
	run(func(int) { _ = reg.WritePrometheus(io.Discard) })
	wg.Wait()

	clk.Set(1000)
	srv.retireDrained()
	sn := state.Snapshot()
	for i := 0; i < srv.Servers(); i++ {
		if sn.Draining(i) {
			t.Errorf("server %d still draining after a sweep past every window", i)
		}
	}
}
