package experiments

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"dnslb/internal/sim"
)

func TestClaimsWellFormed(t *testing.T) {
	claims := Claims()
	if len(claims) != 12 {
		t.Fatalf("claims = %d, want 12", len(claims))
	}
	seen := make(map[string]bool)
	for _, c := range claims {
		if c.ID == "" || c.Statement == "" || len(c.Reads) == 0 || c.Judge == nil {
			t.Errorf("claim %+v incomplete", c.ID)
		}
		for _, r := range c.Reads {
			if r.Policy == "" || r.Of == nil {
				t.Errorf("claim %s: read %+v incomplete", c.ID, r)
			}
		}
		if _, detail := c.Judge(make([]float64, len(c.Reads))); detail == "" {
			t.Errorf("claim %s: empty detail", c.ID)
		}
		if seen[c.ID] {
			t.Errorf("duplicate claim ID %q", c.ID)
		}
		seen[c.ID] = true
	}
}

// TestRunTable pins the run table to the runs the claims made when
// each ran its own: every read gets the configuration built the old
// way (the RR defaults renamed to the policy, the uniform workload for
// Ideal, the claim's change, then the options), and the 21 reads share
// 16 distinct runs.
func TestRunTable(t *testing.T) {
	o := Options{Duration: 3600, Reps: 1, Seed: 7}
	at := func(pct int) func(*sim.Config) { return func(cfg *sim.Config) { cfg.HeterogeneityPct = pct } }
	minTTL60 := func(cfg *sim.Config) { cfg.MinNSTTL = 60 }
	hi := func(cfg *sim.Config) {
		cfg.HeterogeneityPct = 50
		cfg.MinNSTTL = 120
	}
	withErr := func(cfg *sim.Config) {
		cfg.HeterogeneityPct = 50
		cfg.Workload.PerturbationPct = 30
	}
	type run struct {
		policy string
		mutate func(*sim.Config)
	}
	want := [][]run{
		{{"DRR2-TTL/S_K", nil}, {"RR", nil}},
		{{"Ideal", nil}, {"DRR2-TTL/S_K", nil}},
		{{"DRR2-TTL/S_1", nil}},
		{{"PRR2-TTL/K", at(35)}, {"PRR2-TTL/2", at(35)}, {"PRR2-TTL/1", at(35)}},
		{{"DRR2-TTL/S_K", at(65)}},
		{{"DAL", at(35)}, {"DRR2-TTL/S_K", at(35)}},
		{{"PRR2-TTL/2", nil}, {"PRR2-TTL/2", minTTL60}},
		{{"PRR2-TTL/K", hi}, {"DRR2-TTL/S_K", hi}},
		{{"DRR2-TTL/S_K", withErr}, {"DRR2-TTL/S_2", withErr}},
		{{"DRR2-TTL/S_K", nil}},
		{{"RR", nil}},
		{{"DRR2-TTL/S_K", nil}, {"RR", nil}},
	}
	claims := Claims()
	cfgs, owner, rows, err := runTable(claims, o)
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	for c, cl := range claims {
		if len(cl.Reads) != len(want[c]) {
			t.Fatalf("%s: %d reads, want %d", cl.ID, len(cl.Reads), len(want[c]))
		}
		for k, w := range want[c] {
			reads++
			old := sim.DefaultConfig("RR")
			old.Policy = w.policy
			if w.policy == "Ideal" {
				old.Workload.Uniform = true
			}
			if w.mutate != nil {
				w.mutate(&old)
			}
			applyOptions(&old, o)
			if got := cfgs[rows[c][k]]; !reflect.DeepEqual(got, old) {
				t.Errorf("%s read %d runs %+v, want %+v", cl.ID, k, got, old)
			}
		}
	}
	if reads != 21 || len(cfgs) != 16 || len(owner) != len(cfgs) {
		t.Errorf("%d reads, %d runs, %d owners; want 21 reads of 16 runs", reads, len(cfgs), len(owner))
	}
	for i := range cfgs {
		for j := 0; j < i; j++ {
			if reflect.DeepEqual(cfgs[i], cfgs[j]) {
				t.Errorf("runs %d and %d are the same configuration", j, i)
			}
		}
	}
	if owner[0] != claims[0].ID || owner[len(owner)-1] != "C9-error-robustness" {
		t.Errorf("owners %v: want each run named by its first reader", owner)
	}
}

// The report of the parent's closure-per-claim validator at 1800 s,
// seed 1: one run table must reproduce it byte for byte.
const verifyQuickReport = `PASS  C1-adaptive-beats-rr         DRR2-TTL/S_K keeps every server under 90% far more often than RR (paper: 0.94 vs 0.1)
      measured: DRR2-TTL/S_K 0.946 vs RR 0.125
PASS  C2-envelope                  DRR2-TTL/S_K lies close to the Ideal envelope (Figure 1)
      measured: Ideal 0.857 vs DRR2-TTL/S_K 0.946
PASS  C3-server-only-insufficient  server-capacity-only TTLs (TTL/S_1) barely improve on RR (paper: still < 0.15)
      measured: DRR2-TTL/S_1 0.196
PASS  C4-class-ordering            finer domain classes help: PRR2 TTL/K ≥ TTL/2 ≥ TTL/1 (Figure 2, het 35%)
      measured: K 0.732, 2 0.643, 1 0.125
PASS  C5-heterogeneity-stability   TTL/S_K stays effective even at 65% heterogeneity (Figure 3)
      measured: P(maxU<0.98) at het 65% = 0.893
PASS  C6-dal-does-not-transfer     DAL (homogeneous-system policy) stays far below the adaptive TTL schemes (Figure 3)
      measured: DAL 0.589 vs DRR2-TTL/S_K 1.000
PASS  C7-ttl2-mintl-insensitive    PRR2-TTL/2 is insensitive to NS minimum TTLs up to ~60 s (Figures 4-5: its TTLs are ≥ 80 s)
      measured: min TTL 0 → 0.911, 60 s → 0.911
PASS  C8-mintl-crossover           at 50% heterogeneity and high minimum TTL, domain-only schemes overtake DRR2-TTL/S_K (Figure 5)
      measured: PRR2-TTL/K 0.625 vs DRR2-TTL/S_K 0.536
PASS  C9-error-robustness          under 30% estimation error at 50% heterogeneity, K-class schemes stay far above 2-class schemes (Figure 7)
      measured: TTL/S_K 0.893 vs TTL/S_2 0.482
PASS  C10-limited-control          the DNS directly controls only a small fraction of the requests (paper: often below 4%)
      measured: controlled fraction 0.0025
PASS  C11-operating-point          the modelled system runs at the paper's 2/3 average utilization
      measured: mean utilization 0.675
PASS  C12-calibrated-address-rate  adaptive TTL policies are calibrated to the constant-TTL address-request rate (paper's fairness condition)
      measured: address-rate ratio 1.021

12/12 claims hold
`

func TestVerifyQuick(t *testing.T) {
	// Shortened runs: the claims must be robust enough to hold even on
	// 30 simulated minutes.
	o := Options{Duration: 1800, Reps: 1, Seed: 1}
	var buf bytes.Buffer
	failed, err := Verify(o, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Errorf("%d claims failed", failed)
	}
	if got := buf.String(); got != verifyQuickReport {
		t.Errorf("report:\n%s\nwant:\n%s", got, verifyQuickReport)
	}
}

func TestVerifyWorkersIdentical(t *testing.T) {
	var seq, par bytes.Buffer
	if _, err := Verify(Options{Duration: 1800, Reps: 1, Seed: 3, Workers: 1}, &seq); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(Options{Duration: 1800, Reps: 1, Seed: 3, Workers: 4}, &par); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("-workers 4 report differs:\n%s\nsequential:\n%s", par.String(), seq.String())
	}
}

func TestVerifyInvalidOptions(t *testing.T) {
	var buf bytes.Buffer
	for _, bad := range []Options{{}, {Duration: math.NaN(), Reps: 1}, {Duration: math.Inf(1), Reps: 1}} {
		if _, err := Verify(bad, &buf); err == nil {
			t.Errorf("%+v: invalid options should error", bad)
		}
	}
}
