package core

import (
	"math"
	"strings"
	"testing"

	"dnslb/internal/simcore"
)

func TestPolicyCatalogComplete(t *testing.T) {
	// Every algorithm named in the paper's figures must be buildable.
	wantNames := []string{
		"RR", "RR2", "DAL", "MRL", "WRR", "Ideal",
		"PRR-TTL/1", "PRR-TTL/2", "PRR-TTL/K",
		"PRR2-TTL/1", "PRR2-TTL/2", "PRR2-TTL/K",
		"DRR-TTL/S_1", "DRR-TTL/S_2", "DRR-TTL/S_K",
		"DRR2-TTL/S_1", "DRR2-TTL/S_2", "DRR2-TTL/S_K",
	}
	names := PolicyNames()
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	for _, w := range wantNames {
		if !set[w] {
			t.Errorf("catalog missing policy %q", w)
		}
	}
	if len(names) != len(wantNames) {
		t.Errorf("catalog has %d entries, want %d: %v", len(names), len(wantNames), names)
	}
}

func TestNewPolicyAllNames(t *testing.T) {
	st := zipfState(t, 35, 20)
	rng := simcore.NewStream(1, "policy")
	now := func() float64 { return 0 }
	for _, name := range PolicyNames() {
		p, err := NewPolicy(PolicyConfig{Name: name, State: st, Rand: rng, Now: now})
		if err != nil {
			t.Errorf("NewPolicy(%q) error: %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("Name = %q, want %q", p.Name(), name)
		}
		d, err := p.Schedule(3)
		if err != nil {
			t.Errorf("%s: Schedule error: %v", name, err)
			continue
		}
		if d.Server < 0 || d.Server >= st.Snapshot().Cluster().N() {
			t.Errorf("%s: server %d out of range", name, d.Server)
		}
		if d.TTL <= 0 {
			t.Errorf("%s: TTL %v not positive", name, d.TTL)
		}
	}
}

func TestNewPolicyErrors(t *testing.T) {
	st := zipfState(t, 20, 20)
	if _, err := NewPolicy(PolicyConfig{Name: "nope", State: st}); err == nil {
		t.Error("unknown name should error")
	} else if !strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("error %q should mention unknown policy", err)
	}
	if _, err := NewPolicy(PolicyConfig{Name: "RR"}); err == nil {
		t.Error("missing state should error")
	}
	if _, err := NewPolicy(PolicyConfig{Name: "PRR-TTL/K", State: st}); err == nil {
		t.Error("PRR without Rand should error")
	}
	if _, err := NewPolicy(PolicyConfig{Name: "DAL", State: st}); err == nil {
		t.Error("DAL without Now should error")
	}
}

func TestScheduleDomainValidation(t *testing.T) {
	st := zipfState(t, 20, 20)
	p, err := NewPolicy(PolicyConfig{Name: "RR", State: st})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Schedule(-1); err == nil {
		t.Error("negative domain should error")
	}
	if _, err := p.Schedule(20); err == nil {
		t.Error("domain out of range should error")
	}
}

func TestPolicyStats(t *testing.T) {
	st := zipfState(t, 20, 20)
	p, err := NewPolicy(PolicyConfig{Name: "DRR2-TTL/S_K", State: st})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := p.Schedule(i % 20); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	if s.Decisions != 100 {
		t.Errorf("Decisions = %d, want 100", s.Decisions)
	}
	var per uint64
	for _, c := range s.PerServer {
		per += c
	}
	if per != 100 {
		t.Errorf("per-server counts sum to %d, want 100", per)
	}
	if s.PerClass[ClassHot]+s.PerClass[ClassNormal] != 100 {
		t.Errorf("per-class counts = %v, want sum 100", s.PerClass)
	}
	if s.MinTTL <= 0 || s.MaxTTL < s.MinTTL || s.MeanTTL < s.MinTTL || s.MeanTTL > s.MaxTTL {
		t.Errorf("TTL stats inconsistent: min %v mean %v max %v", s.MinTTL, s.MeanTTL, s.MaxTTL)
	}
	// Adaptive TTL spread: server-and-domain aware TTLs must differ.
	if s.MaxTTL-s.MinTTL < 1 {
		t.Errorf("TTL/S_K spread = %v, want substantial variation", s.MaxTTL-s.MinTTL)
	}
}

func TestTTLVariantExposed(t *testing.T) {
	st := zipfState(t, 20, 20)
	p, err := NewPolicy(PolicyConfig{Name: "DRR-TTL/S_2", State: st})
	if err != nil {
		t.Fatal(err)
	}
	v := p.ttl.variant
	if v.Classes != TwoClasses || !v.ServerAware {
		t.Errorf("TTL variant = %v, want TTL/S_2", v)
	}
	if p.State() != st {
		t.Error("State() should return the shared state")
	}
}

func TestRRBaselineUsesConstantTTL(t *testing.T) {
	st := zipfState(t, 20, 20)
	p, err := NewPolicy(PolicyConfig{Name: "RR", State: st})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		d, err := p.Schedule(i % 20)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(d.TTL-DefaultConstantTTL) > 1e-9 {
			t.Fatalf("RR TTL = %v, want constant %v", d.TTL, DefaultConstantTTL)
		}
	}
}

func TestCustomConstantTTL(t *testing.T) {
	st := zipfState(t, 20, 20)
	p, err := NewPolicy(PolicyConfig{Name: "RR", State: st, ConstantTTL: 300})
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Schedule(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.TTL-300) > 1e-9 {
		t.Errorf("TTL = %v, want 300", d.TTL)
	}
}

func TestEstimator(t *testing.T) {
	e, err := NewEstimator(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Before any roll: uniform.
	w := e.Weights()
	for _, v := range w {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Errorf("pre-roll weight = %v, want uniform 1/3", v)
		}
	}
	e.Record(0, 300)
	e.Record(1, 100)
	e.Record(2, 100)
	e.Roll(10)
	w = e.Weights()
	if math.Abs(w[0]-0.6) > 1e-12 || math.Abs(w[1]-0.2) > 1e-12 {
		t.Errorf("weights = %v, want [0.6 0.2 0.2]", w)
	}
	rates := e.Rates()
	if math.Abs(rates[0]-30) > 1e-12 {
		t.Errorf("rate[0] = %v, want 30 hits/s", rates[0])
	}
	if e.State().Rolls != 1 {
		t.Errorf("Rolls = %d, want 1", e.State().Rolls)
	}
	// Invalid records are rejected — and the caller is told so.
	for _, bad := range []struct {
		domain int
		hits   float64
	}{{-1, 10}, {3, 10}, {0, -5}, {0, math.NaN()}, {0, math.Inf(1)}} {
		if e.Record(bad.domain, bad.hits) {
			t.Errorf("Record(%d, %v) should be rejected", bad.domain, bad.hits)
		}
	}
	if !e.Record(0, 1) {
		t.Error("valid Record should be accepted")
	}
	for _, bad := range []float64{0, math.NaN(), math.Inf(1)} {
		e.Roll(bad)
		if e.State().Rolls != 1 {
			t.Errorf("Roll(%v) should be a no-op", bad)
		}
	}
}

func TestEstimatorEWMA(t *testing.T) {
	e, err := NewEstimator(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	e.Record(0, 100)
	e.Roll(10) // rates: [10, 0]
	e.Record(1, 100)
	e.Roll(10) // rates: [5, 5]
	rates := e.Rates()
	if math.Abs(rates[0]-5) > 1e-12 || math.Abs(rates[1]-5) > 1e-12 {
		t.Errorf("EWMA rates = %v, want [5 5]", rates)
	}
	// A domain that goes quiet decays but is not forgotten instantly.
	e.Roll(10)
	rates = e.Rates()
	if rates[0] != 2.5 {
		t.Errorf("decayed rate = %v, want 2.5", rates[0])
	}
}

func TestEstimatorValidation(t *testing.T) {
	if _, err := NewEstimator(0, 0.5); err == nil {
		t.Error("zero domains should error")
	}
	if _, err := NewEstimator(3, 0); err == nil {
		t.Error("alpha 0 should error")
	}
	if _, err := NewEstimator(3, 1.5); err == nil {
		t.Error("alpha > 1 should error")
	}
}

func TestEstimatorDrivesState(t *testing.T) {
	// End-to-end: estimator weights feed State and reclassify domains.
	st := zipfState(t, 20, 20)
	e, err := NewEstimator(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Observed traffic concentrated on domain 7.
	e.Record(7, 1000)
	for j := 0; j < 20; j++ {
		if j != 7 {
			e.Record(j, 10)
		}
	}
	e.Roll(60)
	if err := st.SetWeights(e.Weights()); err != nil {
		t.Fatal(err)
	}
	if st.Snapshot().Class(7) != ClassHot {
		t.Error("domain 7 should be classified hot from estimated weights")
	}
	if st.Snapshot().HotDomains() != 1 {
		t.Errorf("HotDomains = %d, want 1", st.Snapshot().HotDomains())
	}
}
