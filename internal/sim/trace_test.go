package sim

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"dnslb/internal/trace"
	"dnslb/internal/workload"
)

// TestTraceReplayMatchesLiveRun is the strongest possible check of the
// trace substrate: a trace generated with the same seed and workload
// must replay into *exactly* the same simulation results as the live
// client processes — same address requests, same hits, same metric.
func TestTraceReplayMatchesLiveRun(t *testing.T) {
	cfg := quickCfg("DRR2-TTL/S_K")
	cfg.Duration = 1800

	live, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	records, err := GenerateTrace(cfg.Workload, cfg.Warmup+cfg.Duration, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	replayCfg := cfg
	replayCfg.Trace = records
	replay, err := Run(replayCfg)
	if err != nil {
		t.Fatal(err)
	}

	if live.TotalHits != replay.TotalHits {
		t.Errorf("TotalHits: live %d, replay %d", live.TotalHits, replay.TotalHits)
	}
	if live.TotalPages != replay.TotalPages {
		t.Errorf("TotalPages: live %d, replay %d", live.TotalPages, replay.TotalPages)
	}
	if live.AddressRequests != replay.AddressRequests {
		t.Errorf("AddressRequests: live %d, replay %d", live.AddressRequests, replay.AddressRequests)
	}
	if live.CacheHits != replay.CacheHits {
		t.Errorf("CacheHits: live %d, replay %d", live.CacheHits, replay.CacheHits)
	}
	if got, want := replay.ProbMaxUnder(0.9), live.ProbMaxUnder(0.9); got != want {
		t.Errorf("ProbMaxUnder(0.9): live %v, replay %v", want, got)
	}
	if got, want := replay.ProbMaxUnder(0.98), live.ProbMaxUnder(0.98); got != want {
		t.Errorf("ProbMaxUnder(0.98): live %v, replay %v", want, got)
	}
}

// TestTraceEnablesPairedPolicyComparison replays one trace against two
// policies: identical arrivals, so the difference is purely the
// scheduling discipline.
func TestTraceEnablesPairedPolicyComparison(t *testing.T) {
	base := quickCfg("RR")
	base.Duration = 1800
	records, err := GenerateTrace(base.Workload, base.Warmup+base.Duration, base.Seed)
	if err != nil {
		t.Fatal(err)
	}

	run := func(policy string) *Result {
		cfg := base
		cfg.Policy = policy
		cfg.Trace = records
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	rr := run("RR")
	best := run("DRR2-TTL/S_K")
	if rr.TotalHits != best.TotalHits {
		t.Fatalf("paired runs saw different traffic: %d vs %d", rr.TotalHits, best.TotalHits)
	}
	if best.ProbMaxUnder(0.9) <= rr.ProbMaxUnder(0.9) {
		t.Errorf("on identical arrivals, DRR2-TTL/S_K (%v) must beat RR (%v)",
			best.ProbMaxUnder(0.9), rr.ProbMaxUnder(0.9))
	}
}

func TestTraceDomainOutOfRange(t *testing.T) {
	cfg := quickCfg("RR")
	cfg.Trace = []trace.Record{{Time: 1, Domain: 99, Client: 0, Hits: 5, NewSession: true}}
	if _, err := Run(cfg); err == nil {
		t.Error("trace referencing unknown domain should error")
	}
}

func TestTraceStartingMidSession(t *testing.T) {
	cfg := quickCfg("RR")
	cfg.Duration = 900
	// No NewSession on the first record: the replay must resolve lazily.
	cfg.Trace = []trace.Record{
		{Time: 1, Domain: 0, Client: 0, Hits: 5},
		{Time: 2, Domain: 0, Client: 0, Hits: 7},
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalHits != 12 {
		t.Errorf("TotalHits = %d, want 12", r.TotalHits)
	}
	if r.AddressRequests != 1 {
		t.Errorf("AddressRequests = %d, want 1 (lazy resolve once)", r.AddressRequests)
	}
}

func TestGenerateTrace(t *testing.T) {
	wl := workload.Default()
	records, err := GenerateTrace(wl, 600, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("empty trace")
	}
	// Roughly clients/think pages per second: 500/15 ≈ 33/s × 600 s.
	if len(records) < 15000 || len(records) > 25000 {
		t.Errorf("records = %d, want ≈ 20000", len(records))
	}
	var sessions int
	for i, r := range records {
		if r.Time < 0 || r.Time > 600 {
			t.Fatalf("record %d at %v outside horizon", i, r.Time)
		}
		if r.Hits < wl.HitsMin || r.Hits > wl.HitsMax {
			t.Fatalf("record %d hits %d out of range", i, r.Hits)
		}
		if r.Domain < 0 || r.Domain >= wl.Domains {
			t.Fatalf("record %d domain %d out of range", i, r.Domain)
		}
		if r.NewSession {
			sessions++
		}
	}
	if sessions == 0 {
		t.Error("no sessions in trace")
	}
	// Every client's first record opens a session.
	first := make(map[int]trace.Record)
	for _, r := range records {
		if _, seen := first[r.Client]; !seen {
			first[r.Client] = r
			if !r.NewSession {
				t.Fatalf("client %d starts mid-session", r.Client)
			}
		}
	}
}

func TestGenerateTraceValidation(t *testing.T) {
	bad := workload.Default()
	bad.Domains = 0
	if _, err := GenerateTrace(bad, 600, 1); err == nil {
		t.Error("invalid workload should error")
	}
	if _, err := GenerateTrace(workload.Default(), 0, 1); err == nil {
		t.Error("zero horizon should error")
	}
}

func TestGenerateTraceDeterministic(t *testing.T) {
	a, err := GenerateTrace(workload.Default(), 300, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTrace(workload.Default(), 300, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestGenerateTraceZipfSkew(t *testing.T) {
	records, err := GenerateTrace(workload.Default(), 1200, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Summarize(records)
	// Pure Zipf: domain 0 carries ≈ 28% of the hits.
	if s.DomainShare[0] < 0.2 || s.DomainShare[0] > 0.36 {
		t.Errorf("domain 0 share = %v, want ≈ 0.28", s.DomainShare[0])
	}
	if s.DomainShare[19] > 0.05 {
		t.Errorf("domain 19 share = %v, want tiny", s.DomainShare[19])
	}
}

// TestGenerateTraceGolden pins the client process: the bytes of a
// recorded trace, at the workload defaults and with a perturbation
// large enough to starve domains (whose client IDs stay reserved),
// are those the generator wrote before the simulator's population,
// its flash crowds and trace generation shared one client.
func TestGenerateTraceGolden(t *testing.T) {
	for _, tc := range []struct {
		perturbation float64
		want         string
	}{
		{0, "95f0a232bb4c212392f9efc5edac637b9d4b2fe55b9461cbc447791efb50024d"},
		{100000, "de404b1dec11d039750085b135d14e9268dfaa954471a8e35378a0f2e4cfd099"},
	} {
		wl := workload.Default()
		wl.PerturbationPct = tc.perturbation
		records, err := GenerateTrace(wl, 900, 7)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := trace.Write(h, records); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.want {
			t.Errorf("perturbation %v%%: trace drifted from golden\n got %s\nwant %s", tc.perturbation, got, tc.want)
		}
	}
}
