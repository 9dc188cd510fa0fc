package dnsserver

import (
	"context"
	"math"
	"net/netip"
	"testing"
	"time"

	"dnslb/internal/core"
	"dnslb/internal/dnsclient"
	"dnslb/internal/dnswire"
	"dnslb/internal/sim"
	"dnslb/internal/simcore"
	"dnslb/internal/trace"
)

// TestTraceReplayMatchesSim is the end-to-end half of the unified
// engine's conformance story: the same recorded request stream is
// replayed through the full simulator (virtual time, NS cache tier,
// trace playback) and through a real dnsserver over the wire (UDP,
// ECS-steered domain classification), and both must make the
// identical (server, TTL) decision sequence.
//
// The trace carries exactly one new-session record per domain, so
// every record misses the per-domain NS cache exactly once and the
// sim's decision order equals the record order — which the live side
// reproduces by issuing one ECS-steered query per record, serially.
func TestTraceReplayMatchesSim(t *testing.T) {
	const (
		seed       = 5
		policyName = "DRR2-TTL/S_K"
	)

	cfg := sim.DefaultConfig(policyName)
	cfg.Seed = seed
	cfg.AlarmThreshold = 0 // no sampler alarms: the live side has no backends reporting
	cfg.MinNSTTL = 0       // cooperative caches: the ledger sees raw TTLs on both sides
	cfg.Duration = 60
	cfg.Warmup = 0
	domains := cfg.Workload.Domains

	records := make([]trace.Record, domains)
	for j := range records {
		records[j] = trace.Record{
			Time:       float64(j + 1),
			Domain:     j,
			Client:     j,
			Hits:       3,
			NewSession: true,
		}
	}
	cfg.Trace = records

	type decision struct {
		domain int
		server int
		ttl    uint32 // as encoded on the wire
	}
	wireTTL := func(ttl float64) uint32 {
		w := uint32(math.Floor(ttl))
		if w == 0 {
			w = 1
		}
		return w
	}
	var fromSim []decision
	cfg.DecisionTap = func(domain int, d core.Decision) {
		fromSim = append(fromSim, decision{domain: domain, server: d.Server, ttl: wireTTL(d.TTL)})
	}
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(fromSim) != len(records) {
		t.Fatalf("sim made %d decisions for %d trace sessions", len(fromSim), len(records))
	}

	// Live server built over the identical scheduling inputs: same
	// cluster, same oracle weights, same policy with the same named
	// RNG stream the simulator draws ("policy", from cfg.Seed).
	cluster, err := core.ScaledCluster(cfg.Servers, cfg.HeterogeneityPct, cfg.TotalCapacity)
	if err != nil {
		t.Fatal(err)
	}
	state, err := core.NewState(cluster, domains)
	if err != nil {
		t.Fatal(err)
	}
	if err := state.SetWeights(cfg.Workload.OracleWeights()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	policy, err := core.NewPolicy(core.PolicyConfig{
		Name:        policyName,
		State:       state,
		Rand:        simcore.NewStream(seed, "policy"),
		Now:         func() float64 { return time.Since(start).Seconds() },
		ConstantTTL: cfg.ConstantTTL,
	})
	if err != nil {
		t.Fatal(err)
	}

	// One client network per domain; ECS steers each query to its
	// record's domain through a StaticMapper on the network address.
	table := make(map[netip.Addr]int, domains)
	clientNet := func(j int) netip.Addr {
		return netip.AddrFrom4([4]byte{10, byte(j + 1), 0, 0})
	}
	for j := 0; j < domains; j++ {
		table[clientNet(j)] = j
	}
	addrs := make([]netip.Addr, cfg.Servers)
	serverOf := make(map[netip.Addr]int, cfg.Servers)
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{192, 0, 2, byte(i + 1)})
		serverOf[addrs[i]] = i
	}
	srv, err := New(Config{
		Zone:        "www.site.example",
		ServerAddrs: addrs,
		Policy:      policy,
		Mapper:      StaticMapper(table, 0),
		Addr:        "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	fromLive := make([]decision, 0, len(records))
	for _, rec := range records {
		r := &dnsclient.Resolver{
			Server:       srv.Addr().String(),
			Timeout:      2 * time.Second,
			ClientSubnet: netip.PrefixFrom(clientNet(rec.Domain), 24),
		}
		resp, err := r.Exchange(context.Background(), "www.site.example", dnswire.TypeA)
		if err != nil {
			t.Fatalf("record %d (domain %d): %v", len(fromLive), rec.Domain, err)
		}
		if len(resp.Answers) != 1 {
			t.Fatalf("record %d: %d answers", len(fromLive), len(resp.Answers))
		}
		a, ok := resp.Answers[0].Data.(dnswire.A)
		if !ok {
			t.Fatalf("record %d: answer is %T, want A", len(fromLive), resp.Answers[0].Data)
		}
		server, ok := serverOf[a.Addr]
		if !ok {
			t.Fatalf("record %d: answered address %v not in the server table", len(fromLive), a.Addr)
		}
		fromLive = append(fromLive, decision{
			domain: rec.Domain,
			server: server,
			ttl:    resp.Answers[0].TTL,
		})
	}

	for i := range fromSim {
		if fromSim[i] != fromLive[i] {
			t.Errorf("decision %d diverges: sim (domain %d → server %d, ttl %d), live (domain %d → server %d, ttl %d)",
				i,
				fromSim[i].domain, fromSim[i].server, fromSim[i].ttl,
				fromLive[i].domain, fromLive[i].server, fromLive[i].ttl)
		}
	}
}
