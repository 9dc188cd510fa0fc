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

// geoPolicy builds policy name over st with the proximity step at the
// given preference on an 8-domain ring geography.
func geoPolicy(t *testing.T, st *State, name string, pref float64, rng Rand) (*Policy, *LatencyMatrix) {
	t.Helper()
	m, err := RingLatencies(8, st.Snapshot().Cluster().N(), 20, 160)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPolicy(PolicyConfig{Name: name, State: st, Rand: rng,
		Proximity: &ProximityConfig{Matrix: m, Preference: pref}})
	if err != nil {
		t.Fatal(err)
	}
	return p, m
}

func schedule(t *testing.T, p *Policy, domain int) int {
	t.Helper()
	d, err := p.Schedule(domain)
	if err != nil {
		t.Fatal(err)
	}
	return d.Server
}

func TestProximitySelectorPureGeo(t *testing.T) {
	st := zipfState(t, 35, 8)
	p, m := geoPolicy(t, st, "RR", 1, nil)
	// Pure geo always picks the nearest available server.
	for domain := 0; domain < 8; domain++ {
		got := schedule(t, p, domain)
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
}

func TestProximitySelectorZeroPrefIsInner(t *testing.T) {
	st := zipfState(t, 35, 8)
	p, _ := geoPolicy(t, st, "RR", 0, nil)
	ref, err := NewPolicy(PolicyConfig{Name: "RR", State: st})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if got, want := schedule(t, p, i%8), schedule(t, ref, i%8); got != want {
			t.Fatalf("p=0 policy diverged from plain RR at %d: %d vs %d", i, got, want)
		}
	}
}

func TestProximitySelectorRespectsAlarms(t *testing.T) {
	st := zipfState(t, 35, 8)
	p, _ := geoPolicy(t, st, "RR", 1, nil)
	nearest := schedule(t, p, 0)
	st.SetAlarm(nearest, true)
	for i := 0; i < 20; i++ {
		if got := schedule(t, p, 0); got == nearest {
			t.Fatal("alarmed nearest server still selected")
		}
	}
}

func TestProximitySelectorMixedPreference(t *testing.T) {
	st := zipfState(t, 35, 8)
	p, m := geoPolicy(t, st, "RR", 0.5, simcore.NewStream(11, "geo"))
	nearest := 0
	for i := 1; i < st.Snapshot().Cluster().N(); i++ {
		if m.Latency(0, i) < m.Latency(0, nearest) {
			nearest = i
		}
	}
	hits := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if schedule(t, p, 0) == nearest {
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

// NewPolicy refuses every proximity configuration the step could not
// run: no matrix, a preference outside [0,1], and a fractional
// preference with nothing to draw it.
func TestNewPolicyProximityValidation(t *testing.T) {
	st := zipfState(t, 35, 4)
	m, err := RingLatencies(4, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := simcore.NewStream(1, "geo-validation")
	for _, c := range []struct {
		what string
		pc   ProximityConfig
		rng  Rand
	}{
		{"nil matrix", ProximityConfig{Preference: 0.5}, rng},
		{"preference > 1", ProximityConfig{Matrix: m, Preference: 1.5}, rng},
		{"preference < 0", ProximityConfig{Matrix: m, Preference: -0.5}, rng},
		{"fractional preference without Rand", ProximityConfig{Matrix: m, Preference: 0.5}, nil},
	} {
		if _, err := NewPolicy(PolicyConfig{Name: "RR", State: st, Rand: c.rng, Proximity: &c.pc}); err == nil {
			t.Errorf("%s should error", c.what)
		}
	}
	for _, pref := range []float64{0, 1} {
		if _, err := NewPolicy(PolicyConfig{Name: "RR", State: st, Proximity: &ProximityConfig{Matrix: m, Preference: pref}}); err != nil {
			t.Errorf("preference %v needs no Rand: %v", pref, err)
		}
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
	if _, err := RingProximityConfig(8, 4, math.NaN()); err == nil {
		t.Error("NaN preference must be rejected")
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
