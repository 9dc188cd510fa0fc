package core

import (
	"math"
	"testing"

	"dnslb/internal/simcore"
)

func testState(t *testing.T, k int) *State {
	t.Helper()
	c, err := ScaledCluster(7, 20, 500)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewState(c, k)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestNewStateValidation(t *testing.T) {
	c := MustCluster([]float64{10})
	if _, err := NewState(nil, 5); err == nil {
		t.Error("nil cluster should error")
	}
	if _, err := NewState(c, 0); err == nil {
		t.Error("zero domains should error")
	}
}

func TestStateDefaults(t *testing.T) {
	st := testState(t, 20)
	if st.Snapshot().Domains() != 20 {
		t.Errorf("Domains = %d", st.Snapshot().Domains())
	}
	if math.Abs(st.Snapshot().beta-0.05) > 1e-12 {
		t.Errorf("Beta = %v, want 1/K = 0.05", st.Snapshot().beta)
	}
	// Uniform initial weights: no domain exceeds β, so all normal.
	if st.Snapshot().HotDomains() != 0 {
		t.Errorf("HotDomains = %d with uniform weights, want 0", st.Snapshot().HotDomains())
	}
	for j := 0; j < 20; j++ {
		if math.Abs(st.Snapshot().Weight(j)-0.05) > 1e-12 {
			t.Errorf("Weight(%d) = %v, want 0.05", j, st.Snapshot().Weight(j))
		}
	}
}

func TestZipfClassPartition(t *testing.T) {
	// Pure Zipf over K=20 domains: H_20 ≈ 3.5977, so domains 1..5 have
	// weight (1/j)/H_20 > 1/20 and are hot; the rest are normal.
	st := testState(t, 20)
	if err := st.SetWeights(simcore.ZipfWeights(20, 1)); err != nil {
		t.Fatal(err)
	}
	if got := st.Snapshot().HotDomains(); got != 5 {
		t.Errorf("HotDomains = %d, want 5 for pure Zipf with K=20", got)
	}
	for j := 0; j < 5; j++ {
		if st.Snapshot().Class(j) != ClassHot {
			t.Errorf("domain %d should be hot", j)
		}
	}
	for j := 5; j < 20; j++ {
		if st.Snapshot().Class(j) != ClassNormal {
			t.Errorf("domain %d should be normal", j)
		}
	}
	sn := st.Snapshot()
	if math.Abs(sn.MaxWeight()-sn.Weight(0)) > 1e-15 {
		t.Errorf("MaxWeight = %v, want weight of domain 0 = %v", sn.MaxWeight(), sn.Weight(0))
	}
	if sn.ClassMeanWeight(ClassHot) <= sn.ClassMeanWeight(ClassNormal) {
		t.Error("hot class mean weight should exceed normal class mean weight")
	}
}

func TestSetWeightsNormalizes(t *testing.T) {
	st := testState(t, 4)
	if err := st.SetWeights([]float64{2, 2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		if math.Abs(st.Snapshot().Weight(j)-0.25) > 1e-12 {
			t.Errorf("Weight(%d) = %v, want normalized 0.25", j, st.Snapshot().Weight(j))
		}
	}
}

func TestSetWeightsValidation(t *testing.T) {
	st := testState(t, 4)
	if err := st.SetWeights([]float64{1, 2, 3}); err == nil {
		t.Error("length change should error")
	}
	if err := st.SetWeights([]float64{1, -1, 1, 1}); err == nil {
		t.Error("negative weight should error")
	}
	if err := st.SetWeights([]float64{0, 0, 0, 0}); err == nil {
		t.Error("zero-sum weights should error")
	}
	if err := st.SetWeights([]float64{math.NaN(), 1, 1, 1}); err == nil {
		t.Error("NaN weight should error")
	}
}

func TestVersionBumpsOnChange(t *testing.T) {
	st := testState(t, 4)
	v0 := st.Snapshot().Version()
	if err := st.SetWeights([]float64{4, 3, 2, 1}); err != nil {
		t.Fatal(err)
	}
	if st.Snapshot().Version() == v0 {
		t.Error("SetWeights should bump version")
	}
}

func TestDegenerateClassPartitions(t *testing.T) {
	st := testState(t, 4)
	// All domains equal: nothing above β=0.25, so all normal; class
	// means fall back so TTL/2 stays defined.
	if err := st.SetWeights([]float64{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if st.Snapshot().HotDomains() != 0 {
		t.Errorf("HotDomains = %d, want 0", st.Snapshot().HotDomains())
	}
	if got := st.Snapshot().ClassMeanWeight(ClassHot); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("hot class mean fallback = %v, want overall mean 0.25", got)
	}
	// One dominant domain: hot class of size 1.
	if err := st.SetWeights([]float64{97, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if st.Snapshot().HotDomains() != 1 {
		t.Errorf("HotDomains = %d, want 1", st.Snapshot().HotDomains())
	}
}

func TestAlarms(t *testing.T) {
	st := testState(t, 5)
	n := st.Snapshot().Cluster().N()
	if sn := st.Snapshot(); sn.nAlarmedE == sn.nEligible {
		t.Error("no alarms initially")
	}
	st.SetAlarm(2, true)
	if !st.Snapshot().Alarmed(2) {
		t.Error("alarm not recorded")
	}
	if st.Snapshot().available(2) {
		t.Error("alarmed server should be unavailable while others are fine")
	}
	// Idempotent set.
	st.SetAlarm(2, true)
	st.SetAlarm(2, false)
	if st.Snapshot().Alarmed(2) {
		t.Error("alarm not cleared")
	}
	// All alarmed: availability is restored (no better candidate).
	for i := 0; i < n; i++ {
		st.SetAlarm(i, true)
	}
	if sn := st.Snapshot(); sn.nAlarmedE != sn.nEligible {
		t.Error("every eligible server should count as alarmed")
	}
	for i := 0; i < n; i++ {
		if !st.Snapshot().available(i) {
			t.Errorf("server %d should be available when all are alarmed", i)
		}
	}
	// Out-of-range alarms are reported.
	if err := st.SetAlarm(-1, true); err == nil {
		t.Error("SetAlarm(-1) should error")
	}
	if err := st.SetAlarm(n, true); err == nil {
		t.Errorf("SetAlarm(%d) should error", n)
	}
}

func TestLiveness(t *testing.T) {
	st := testState(t, 5)
	n := st.Snapshot().Cluster().N()
	if st.Snapshot().LiveServers() != n {
		t.Errorf("LiveServers = %d, want %d", st.Snapshot().LiveServers(), n)
	}
	if err := st.SetDown(3, true); err != nil {
		t.Fatal(err)
	}
	if sn := st.Snapshot(); !sn.Down(3) || sn.available(3) {
		t.Error("down server must be recorded and unavailable")
	}
	if st.Snapshot().LiveServers() != n-1 {
		t.Errorf("LiveServers = %d, want %d", st.Snapshot().LiveServers(), n-1)
	}
	// Idempotent: repeating the same transition changes nothing.
	v := st.Snapshot().Version()
	if err := st.SetDown(3, true); err != nil {
		t.Fatal(err)
	}
	if st.Snapshot().Version() != v {
		t.Error("repeated SetDown must not bump version")
	}
	if err := st.SetDown(3, false); err != nil {
		t.Fatal(err)
	}
	if sn := st.Snapshot(); sn.Down(3) || sn.Version() == v {
		t.Error("recovery must clear the flag and bump version")
	}
	// Out-of-range liveness is reported.
	if err := st.SetDown(-1, true); err == nil {
		t.Error("SetDown(-1) should error")
	}
	if err := st.SetDown(n, true); err == nil {
		t.Errorf("SetDown(%d) should error", n)
	}
}

func TestLivenessVersionBump(t *testing.T) {
	st := testState(t, 4)
	v0 := st.Snapshot().Version()
	if err := st.SetDown(0, true); err != nil {
		t.Fatal(err)
	}
	if st.Snapshot().Version() == v0 {
		t.Error("membership change should bump version for TTL recalibration")
	}
}

func TestAlarmsAmongLiveServersOnly(t *testing.T) {
	// With server 0 down, alarming all *live* servers must re-admit the
	// live ones (no better candidate) while 0 stays excluded.
	st := testState(t, 5)
	n := st.Snapshot().Cluster().N()
	if err := st.SetDown(0, true); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if err := st.SetAlarm(i, true); err != nil {
			t.Fatal(err)
		}
	}
	if st.Snapshot().available(0) {
		t.Error("down server must stay excluded even when all live servers are alarmed")
	}
	for i := 1; i < n; i++ {
		if !st.Snapshot().available(i) {
			t.Errorf("server %d should be available when every live server is alarmed", i)
		}
	}
	// Recovery of a non-alarmed server breaks the all-alarmed tie.
	if err := st.SetDown(0, false); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if st.Snapshot().available(i) {
			t.Errorf("server %d should be excluded again once a non-alarmed server is live", i)
		}
	}
	if !st.Snapshot().available(0) {
		t.Error("recovered server should be available")
	}
}

func TestAllDown(t *testing.T) {
	st := testState(t, 5)
	n := st.Snapshot().Cluster().N()
	for i := 0; i < n; i++ {
		if err := st.SetDown(i, true); err != nil {
			t.Fatal(err)
		}
	}
	if sn := st.Snapshot(); sn.LiveServers() != 0 {
		t.Error("no server should be live with every server down")
	}
	for i := 0; i < n; i++ {
		if st.Snapshot().available(i) {
			t.Errorf("server %d available with the whole cluster down", i)
		}
	}
}

func TestDomainClassString(t *testing.T) {
	if ClassNormal.String() != "normal" || ClassHot.String() != "hot" {
		t.Error("class string names wrong")
	}
	if DomainClass(99).String() == "" {
		t.Error("unknown class should still stringify")
	}
}
