package core

import (
	"math"
	"testing"

	"dnslb/internal/simcore"
)

func TestNewLatencyMatrixValidation(t *testing.T) {
	if _, err := NewLatencyMatrix(0, 3, nil); err == nil {
		t.Error("zero domains should error")
	}
	if _, err := NewLatencyMatrix(2, 2, []float64{1, 2, 3}); err == nil {
		t.Error("wrong value count should error")
	}
	if _, err := NewLatencyMatrix(1, 2, []float64{1, -1}); err == nil {
		t.Error("negative latency should error")
	}
	m, err := NewLatencyMatrix(2, 2, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Latency(1, 0) != 3 {
		t.Errorf("Latency(1,0) = %v, want 3", m.Latency(1, 0))
	}
}

func TestRingLatencies(t *testing.T) {
	m, err := RingLatencies(8, 4, 20, 160)
	if err != nil {
		t.Fatal(err)
	}
	// Domain 0 sits on server 0: latency = base.
	if got := m.Latency(0, 0); math.Abs(got-20) > 1e-9 {
		t.Errorf("Latency(0,0) = %v, want base 20", got)
	}
	// The farthest server is half a ring away: base + span.
	if got := m.Latency(0, 2); math.Abs(got-180) > 1e-9 {
		t.Errorf("Latency(0,2) = %v, want 180", got)
	}
	// Symmetric wrap-around: server 3 and server 1 are equidistant
	// from domain 0.
	if math.Abs(m.Latency(0, 1)-m.Latency(0, 3)) > 1e-9 {
		t.Error("ring should be symmetric")
	}
	if _, err := RingLatencies(0, 4, 1, 1); err == nil {
		t.Error("zero domains should error")
	}
	if _, err := RingLatencies(4, 4, -1, 1); err == nil {
		t.Error("negative base should error")
	}
}

func TestProximitySelectorPureGeo(t *testing.T) {
	st := zipfState(t, 35, 8)
	m, err := RingLatencies(8, st.Snapshot().Cluster().N(), 20, 160)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewProximitySelector(NewRR(), m, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pure geo always picks the nearest available server.
	for domain := 0; domain < 8; domain++ {
		got := sel.Select(st.Snapshot(), domain)
		best := 0
		for i := 1; i < st.Snapshot().Cluster().N(); i++ {
			if m.Latency(domain, i) < m.Latency(domain, best) {
				best = i
			}
		}
		if got != best {
			t.Errorf("domain %d routed to %d, nearest is %d", domain, got, best)
		}
	}
	if sel.Name() != "Geo(RR,1.00)" {
		t.Errorf("Name = %q", sel.Name())
	}
}

func TestProximitySelectorZeroPrefIsInner(t *testing.T) {
	st := zipfState(t, 35, 8)
	m, err := RingLatencies(8, st.Snapshot().Cluster().N(), 20, 160)
	if err != nil {
		t.Fatal(err)
	}
	inner := NewRR()
	sel, err := NewProximitySelector(inner, m, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewRR()
	for i := 0; i < 30; i++ {
		if got, want := sel.Select(st.Snapshot(), i%8), ref.Select(st.Snapshot(), i%8); got != want {
			t.Fatalf("p=0 selector diverged from inner at %d: %d vs %d", i, got, want)
		}
	}
}

func TestProximitySelectorRespectsAlarms(t *testing.T) {
	st := zipfState(t, 35, 8)
	m, err := RingLatencies(8, st.Snapshot().Cluster().N(), 20, 160)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewProximitySelector(NewRR(), m, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	nearest := sel.Select(st.Snapshot(), 0)
	st.SetAlarm(nearest, true)
	for i := 0; i < 20; i++ {
		if got := sel.Select(st.Snapshot(), 0); got == nearest {
			t.Fatal("alarmed nearest server still selected")
		}
	}
}

func TestProximitySelectorMixedPreference(t *testing.T) {
	st := zipfState(t, 35, 8)
	m, err := RingLatencies(8, st.Snapshot().Cluster().N(), 20, 160)
	if err != nil {
		t.Fatal(err)
	}
	rng := simcore.NewStream(11, "geo")
	sel, err := NewProximitySelector(NewRR(), m, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	nearest := 0
	for i := 1; i < st.Snapshot().Cluster().N(); i++ {
		if m.Latency(0, i) < m.Latency(0, nearest) {
			nearest = i
		}
	}
	hits := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if sel.Select(st.Snapshot(), 0) == nearest {
			hits++
		}
	}
	frac := float64(hits) / trials
	// p=0.5 geo picks plus the occasional RR landing there: between
	// 0.5 and 0.5 + 1/N + noise.
	if frac < 0.45 || frac > 0.75 {
		t.Errorf("nearest-server fraction = %v, want ≈ 0.5–0.65", frac)
	}
}

func TestNewProximitySelectorValidation(t *testing.T) {
	m, err := RingLatencies(4, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProximitySelector(nil, m, 0.5, nil); err == nil {
		t.Error("nil inner should error")
	}
	if _, err := NewProximitySelector(NewRR(), nil, 0.5, nil); err == nil {
		t.Error("nil matrix should error")
	}
	if _, err := NewProximitySelector(NewRR(), m, 1.5, nil); err == nil {
		t.Error("preference > 1 should error")
	}
	if _, err := NewProximitySelector(NewRR(), m, 0.5, nil); err == nil {
		t.Error("fractional preference without Rand should error")
	}
}

func TestMeanLatency(t *testing.T) {
	m, err := NewLatencyMatrix(2, 2, []float64{10, 50, 50, 10})
	if err != nil {
		t.Fatal(err)
	}
	// Both domains assigned to their near server: mean = 10.
	got := m.MeanLatency([]float64{0.5, 0.5}, func(d int) int { return d })
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("MeanLatency = %v, want 10", got)
	}
	// Crossed assignment: mean = 50.
	got = m.MeanLatency([]float64{0.5, 0.5}, func(d int) int { return 1 - d })
	if math.Abs(got-50) > 1e-9 {
		t.Errorf("MeanLatency = %v, want 50", got)
	}
}

func TestProximityPolicyEndToEnd(t *testing.T) {
	st := zipfState(t, 35, 8)
	m, err := RingLatencies(8, st.Snapshot().Cluster().N(), 20, 160)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPolicy(PolicyConfig{
		Name:      "DRR2-TTL/S_K",
		State:     st,
		Rand:      simcore.NewStream(1, "geo-policy"),
		Proximity: &ProximityConfig{Matrix: m, Preference: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := p.Schedule(i % 8); err != nil {
			t.Fatal(err)
		}
	}
	bad := &ProximityConfig{Matrix: m, Preference: 2}
	if _, err := NewPolicy(PolicyConfig{Name: "RR", State: st, Proximity: bad}); err == nil {
		t.Error("invalid proximity config should propagate")
	}
}

// TestRingProximityConfig covers the shared geo setup helper: the sim
// and the live server must build identical ProximityConfigs from the
// same knobs.
func TestRingProximityConfig(t *testing.T) {
	if pc, err := RingProximityConfig(8, 4, 0); pc != nil || err != nil {
		t.Errorf("zero preference: got (%v, %v), want (nil, nil)", pc, err)
	}
	if _, err := RingProximityConfig(8, 4, 1.5); err == nil {
		t.Error("preference > 1 must be rejected")
	}
	if _, err := RingProximityConfig(0, 4, 0.5); err == nil {
		t.Error("zero domains must be rejected")
	}
	pc, err := RingProximityConfig(8, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Preference != 0.5 {
		t.Errorf("preference = %v", pc.Preference)
	}
	// The matrix has the documented shape.
	want, err := RingLatencies(8, 4, DefaultGeoBaseMS, DefaultGeoSpanMS)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 8; j++ {
		for i := 0; i < 4; i++ {
			if pc.Matrix.Latency(j, i) != want.Latency(j, i) {
				t.Fatalf("default matrix differs at (%d,%d)", j, i)
			}
		}
	}
}
