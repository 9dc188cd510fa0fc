package engine

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"dnslb/internal/core"
	"dnslb/internal/simcore"
)

func testEngine(t *testing.T, policy string, est core.LoadEstimator, clock Clock) *Engine {
	t.Helper()
	cluster, err := core.NewCluster([]float64{120, 100, 80})
	if err != nil {
		t.Fatal(err)
	}
	state, err := core.NewState(cluster, 4)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := core.NewPolicy(core.PolicyConfig{
		Name:  policy,
		State: state,
		Rand:  simcore.NewStream(1, "policy"),
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{Policy: pol, Clock: clock, Estimator: est})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil policy must be rejected")
	}
	cluster, _ := core.NewCluster([]float64{100})
	state, _ := core.NewState(cluster, 1)
	pol, err := core.NewPolicy(core.PolicyConfig{Name: "RR", State: state})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Policy: pol}); err == nil {
		t.Error("nil clock must be rejected")
	}
}

func TestDecideExtendsLedger(t *testing.T) {
	clock := &ManualClock{}
	clock.Set(100)
	eng := testEngine(t, "DRR-TTL/S_K", nil, clock)
	d, err := eng.Decide(0)
	if err != nil {
		t.Fatal(err)
	}
	want := 100 + d.TTL
	if got := eng.MappingExpiry(d.Server); got != want {
		t.Errorf("ledger expiry = %v, want %v", got, want)
	}
	// An earlier expiry never shrinks the window.
	eng.NoteMapping(d.Server, 50)
	if got := eng.MappingExpiry(d.Server); got != want {
		t.Errorf("ledger shrank to %v after stale note, want %v", got, want)
	}
	// A clamped-up TTL extends it.
	eng.NoteMapping(d.Server, want+60)
	if got := eng.MappingExpiry(d.Server); got != want+60 {
		t.Errorf("ledger expiry = %v after extension, want %v", got, want+60)
	}
}

func TestDecideNoServers(t *testing.T) {
	clock := &ManualClock{}
	eng := testEngine(t, "RR", nil, clock)
	for i := 0; i < 3; i++ {
		if err := eng.SetDown(i, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Decide(0); !errors.Is(err, core.ErrNoServers) {
		t.Errorf("err = %v, want ErrNoServers", err)
	}
	for i := 0; i < 3; i++ {
		if got := eng.MappingExpiry(i); got != 0 {
			t.Errorf("server %d ledger touched (%v) by a failed decision", i, got)
		}
	}
}

func TestDrainDeadline(t *testing.T) {
	clock := &ManualClock{}
	clock.Set(10)
	eng := testEngine(t, "RR", nil, clock)
	// No mapping ever handed out: deadline is now.
	if got := eng.DrainDeadline(2); got != 10 {
		t.Errorf("deadline = %v, want now (10)", got)
	}
	eng.NoteMapping(2, 250)
	if got := eng.DrainDeadline(2); got != 250 {
		t.Errorf("deadline = %v, want 250", got)
	}
	clock.Set(300) // window already closed
	if got := eng.DrainDeadline(2); got != 300 {
		t.Errorf("deadline = %v, want now (300)", got)
	}
}

// TestRetireWaitsForMovedWindow: a decision in flight when the drain
// started can extend the window after Drain computed its deadline.
// Retire at the old deadline must keep the slot and name the new one,
// and retire it there.
func TestRetireWaitsForMovedWindow(t *testing.T) {
	clock := &ManualClock{}
	clock.Set(10)
	eng := testEngine(t, "RR", nil, clock)
	eng.NoteMapping(2, 100)
	deadline, err := eng.Drain(2)
	if err != nil || deadline != 100 {
		t.Fatalf("Drain = %v, %v; want 100, nil", deadline, err)
	}
	if again, err := eng.Drain(2); err != nil || again != 100 {
		t.Errorf("re-Drain = %v, %v; want the pending deadline 100", again, err)
	}
	eng.NoteMapping(2, 160) // the in-flight decision lands
	clock.Set(deadline)
	later, err := eng.Retire(2)
	if err != nil || later != 160 {
		t.Fatalf("Retire at the old deadline = %v, %v; want 160, nil", later, err)
	}
	if !eng.State().Snapshot().Member(2) {
		t.Fatal("Retire removed a server whose window is still open")
	}
	clock.Set(later)
	if later, err := eng.Retire(2); err != nil || later != 0 {
		t.Fatalf("Retire at the moved deadline = %v, %v; want 0, nil", later, err)
	}
	if eng.State().Snapshot().Member(2) {
		t.Error("Retire kept a server whose window has closed")
	}
	if _, err := eng.Retire(2); err == nil {
		t.Error("retiring a server that is not draining must fail")
	}
}

func TestEstimatorFeedback(t *testing.T) {
	est, err := core.NewEstimator(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := testEngine(t, "DRR-TTL/S_K", est, &ManualClock{})
	if !eng.HasEstimator() {
		t.Fatal("estimator not attached")
	}
	eng.RecordHits(0, 300)
	eng.RecordHits(1, 100)
	if err := eng.RollEstimates(10); err != nil {
		t.Fatal(err)
	}
	sn := eng.State().Snapshot()
	if w0, w1 := sn.Weight(0), sn.Weight(1); math.Abs(w0-0.75) > 1e-12 || math.Abs(w1-0.25) > 1e-12 {
		t.Errorf("weights after roll = %v, %v, want 0.75, 0.25", w0, w1)
	}
	snap, ok := eng.EstimatorState()
	if !ok {
		t.Fatal("EstimatorState unavailable")
	}
	if snap.Rolls != 1 {
		t.Errorf("rolls = %d, want 1", snap.Rolls)
	}
	if err := eng.RestoreEstimator(snap); err != nil {
		t.Errorf("restore round-trip: %v", err)
	}
}

// TestUnseenDomainGetsBaseTTL: after one roll that saw hits for
// domains 0 and 1 only, domains 2 and 3 have no evidence. They are
// unknown, not cold, so they get the hottest domain's TTL on the same
// server — the base TTL scaled by the server factor — not a day.
func TestUnseenDomainGetsBaseTTL(t *testing.T) {
	for _, policy := range []string{"DRR-TTL/K", "DRR-TTL/S_K"} {
		est, err := core.NewLoadEstimator(core.EstimatorReactive, 4, core.DefaultEstimatorAlpha)
		if err != nil {
			t.Fatal(err)
		}
		eng := testEngine(t, policy, est, &ManualClock{})
		eng.RecordHits(0, 300)
		eng.RecordHits(1, 100)
		if err := eng.RollEstimates(60); err != nil {
			t.Fatal(err)
		}
		hottest := make(map[int]float64) // server → domain 0's TTL there
		for range 3 {
			d, err := eng.Decide(0)
			if err != nil {
				t.Fatal(err)
			}
			hottest[d.Server] = d.TTL
		}
		for _, domain := range []int{2, 3} {
			for range 3 {
				d, err := eng.Decide(domain)
				if err != nil {
					t.Fatal(err)
				}
				want, ok := hottest[d.Server]
				if !ok {
					t.Fatalf("%s: domain 0 never mapped to server %d", policy, d.Server)
				}
				if d.TTL != want {
					t.Errorf("%s: unseen domain %d on server %d got TTL %v, want the base %v",
						policy, domain, d.Server, d.TTL, want)
				}
			}
		}
	}
}

func TestEstimatorDisabled(t *testing.T) {
	eng := testEngine(t, "RR", nil, &ManualClock{})
	eng.RecordHits(0, 100) // must not panic
	if err := eng.RollEstimates(10); err != nil {
		t.Errorf("RollEstimates without estimator = %v, want nil", err)
	}
	if _, ok := eng.EstimatorState(); ok {
		t.Error("EstimatorState must report disabled feedback")
	}
	if err := eng.RestoreEstimator(core.EstimatorState{}); err == nil {
		t.Error("RestoreEstimator without estimator must error")
	}
}

func TestLedgerGrowAndConcurrentExtend(t *testing.T) {
	l := NewLedger(2)
	if len(*l.slots.Load()) != 2 {
		t.Fatalf("len = %d", len(*l.slots.Load()))
	}
	l.Grow(8)
	if len(*l.slots.Load()) != 8 {
		t.Fatalf("len after grow = %d", len(*l.slots.Load()))
	}
	l.Grow(4) // never shrinks
	if len(*l.slots.Load()) != 8 {
		t.Fatalf("len after smaller grow = %d", len(*l.slots.Load()))
	}
	// Concurrent CAS-max across growth: the final value per slot is the
	// maximum ever written, regardless of interleaving.
	var wg sync.WaitGroup
	const writers = 8
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 1000; k++ {
				l.Extend(10+k%3, float64(k+w))
			}
		}(w)
	}
	wg.Wait()
	for i := 10; i < 13; i++ {
		if got := l.Expiry(i); got < 999 {
			t.Errorf("slot %d = %v, want ≥ 999", i, got)
		}
	}
	if got := l.Expiry(-1); got != 0 {
		t.Errorf("negative slot expiry = %v", got)
	}
	if got := l.Expiry(1000); got != 0 {
		t.Errorf("out-of-range expiry = %v", got)
	}
}

func TestWallClockRoundTrip(t *testing.T) {
	c := NewWallClock()
	at := c.Time(90)
	if got := c.Seconds(at); math.Abs(got-90) > 1e-6 {
		t.Errorf("round trip = %v, want 90", got)
	}
	if d := time.Until(at); d < 80*time.Second || d > 91*time.Second {
		t.Errorf("Time(90) is %v away, want ≈90s", d)
	}
	if now := c.Now(); now < 0 || now > 60 {
		t.Errorf("wall Now = %v, want small positive", now)
	}
}

func TestDecisionTap(t *testing.T) {
	cluster, _ := core.NewCluster([]float64{100, 100})
	state, _ := core.NewState(cluster, 2)
	pol, err := core.NewPolicy(core.PolicyConfig{Name: "RR", State: state})
	if err != nil {
		t.Fatal(err)
	}
	var seen []core.Decision
	eng, err := New(Config{
		Policy: pol,
		Clock:  &ManualClock{},
		OnDecision: func(domain int, d core.Decision) {
			seen = append(seen, d)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := eng.Decide(0); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("tap saw %d decisions, want 3", len(seen))
	}
}
