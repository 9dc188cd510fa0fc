package webserver

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 5); err == nil {
		t.Error("zero capacity should error")
	}
	if _, err := New(-1, 5); err == nil {
		t.Error("negative capacity should error")
	}
	if _, err := New(100, 0); err == nil {
		t.Error("zero domains should error")
	}
}

func TestUtilizationIdle(t *testing.T) {
	s, err := New(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.CloseWindow(8); got != 0 {
		t.Errorf("idle utilization = %v, want 0", got)
	}
}

func TestUtilizationPartialWindow(t *testing.T) {
	s, err := New(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 200 hits at capacity 100 → 2 s of work in an 8 s window.
	s.Arrive(0, 0, 200)
	if got := s.CloseWindow(8); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("utilization = %v, want 0.25", got)
	}
	// Next window is idle again.
	if got := s.CloseWindow(16); got != 0 {
		t.Errorf("second window utilization = %v, want 0", got)
	}
}

// TestUtilizationLiveReading: Utilization reads the open window without
// closing it, and CloseWindow then reports the same window.
func TestUtilizationLiveReading(t *testing.T) {
	s, err := New(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Utilization(0); got != 0 {
		t.Errorf("empty window reads %v, want 0", got)
	}
	s.Arrive(0, 0, 200) // 2 s of work
	if got := s.Utilization(1); got != 1 {
		t.Errorf("reading at 1 s = %v, want 1 (busy throughout)", got)
	}
	if got := s.Utilization(4); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("reading at 4 s = %v, want 0.5", got)
	}
	if got := s.CloseWindow(8); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("closed window = %v, want 0.25: a reading must not close it", got)
	}
	if got := s.Utilization(12); got != 0 {
		t.Errorf("reading in the next, idle window = %v, want 0", got)
	}
}

func TestUtilizationSaturated(t *testing.T) {
	s, err := New(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 4000 hits → 40 s of work: the first 8 s window is fully busy.
	s.Arrive(0, 0, 4000)
	for w := 1; w <= 5; w++ {
		if got := s.CloseWindow(float64(8 * w)); math.Abs(got-1) > 1e-12 {
			t.Errorf("window %d utilization = %v, want 1 while backlog drains", w, got)
		}
	}
	// Backlog exhausted at t=40; window [40,48] is idle.
	if got := s.CloseWindow(48); got != 0 {
		t.Errorf("post-drain utilization = %v, want 0", got)
	}
}

func TestBusyPeriodSpansWindows(t *testing.T) {
	s, err := New(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Work arrives at t=6: 400 hits → busy [6,10].
	s.Arrive(6, 0, 400)
	if got := s.CloseWindow(8); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("window 1 utilization = %v, want 2/8", got)
	}
	if got := s.CloseWindow(16); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("window 2 utilization = %v, want 2/8", got)
	}
}

func TestBacklogAndFIFOAccumulation(t *testing.T) {
	s, err := New(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Arrive(0, 0, 100) // 2 s
	s.Arrive(0, 0, 100) // +2 s
	if got := s.Backlog(0); math.Abs(got-4) > 1e-12 {
		t.Errorf("backlog = %v, want 4 s", got)
	}
	if got := s.Backlog(3); math.Abs(got-1) > 1e-12 {
		t.Errorf("backlog at t=3 = %v, want 1 s", got)
	}
	if got := s.Backlog(10); got != 0 {
		t.Errorf("backlog after drain = %v, want 0", got)
	}
}

func TestCounters(t *testing.T) {
	s, err := New(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.Arrive(0, 0, 10)
	s.Arrive(1, 2, 5)
	s.Arrive(2, 1, 7)
	s.Arrive(2, -1, 3) // unknown domain still counted in totals
	s.Arrive(2, 0, 0)  // zero hits ignored
	if s.TotalHits() != 25 {
		t.Errorf("TotalHits = %d, want 25", s.TotalHits())
	}
	if s.TotalPages() != 4 {
		t.Errorf("TotalPages = %d, want 4", s.TotalPages())
	}
	hits := s.TakeDomainHits()
	if hits[0] != 10 || hits[1] != 7 || hits[2] != 5 {
		t.Errorf("domain hits = %v, want [10 7 5]", hits)
	}
	// Take resets.
	hits = s.TakeDomainHits()
	for j, h := range hits {
		if h != 0 {
			t.Errorf("domain %d hits = %v after take, want 0", j, h)
		}
	}
}

func TestMeanUtilization(t *testing.T) {
	s, err := New(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Arrive(0, 0, 500) // 5 s of work
	if got := s.MeanUtilization(10); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("MeanUtilization = %v, want 0.5", got)
	}
	if got := s.MeanUtilization(0); got != 0 {
		t.Errorf("MeanUtilization at t=0 = %v, want 0", got)
	}
	if got := s.capacity; got != 100 {
		t.Errorf("Capacity = %v", got)
	}
}

func TestUtilizationNeverExceedsOneProperty(t *testing.T) {
	f := func(arrivals []uint16) bool {
		s, err := New(80, 1)
		if err != nil {
			return false
		}
		now := 0.0
		window := 0.0
		for _, a := range arrivals {
			now += float64(a%50) / 10
			s.Arrive(now, 0, int(a%300)+1)
			for window+8 <= now {
				window += 8
				u := s.CloseWindow(window)
				if u < 0 || u > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBusyTimeConservationProperty(t *testing.T) {
	// Total credited busy time equals min(total work, elapsed busy
	// opportunity): with all work arriving at t=0 it is exactly
	// min(work, horizon).
	f := func(hitsRaw uint16) bool {
		hits := int(hitsRaw%5000) + 1
		s, err := New(100, 1)
		if err != nil {
			return false
		}
		s.Arrive(0, 0, hits)
		const windows = 8
		var total float64
		for w := 1; w <= windows; w++ {
			total += s.CloseWindow(float64(8*w)) * 8
		}
		work := float64(hits) / 100
		want := math.Min(work, float64(8*windows))
		return math.Abs(total-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResponseTimes(t *testing.T) {
	s, err := New(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.MeanResponseTime() != 0 || s.MaxResponseTime() != 0 {
		t.Error("response times should start at zero")
	}
	// Page 1 at t=0: 100 hits = 1 s service, empty queue → response 1 s.
	s.Arrive(0, 0, 100)
	// Page 2 at t=0: waits 1 s, serves 1 s → response 2 s.
	s.Arrive(0, 0, 100)
	if got := s.MeanResponseTime(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("MeanResponseTime = %v, want 1.5", got)
	}
	if got := s.MaxResponseTime(); math.Abs(got-2) > 1e-12 {
		t.Errorf("MaxResponseTime = %v, want 2", got)
	}
	// A page after the queue drains sees only its own service time.
	s.Arrive(10, 0, 50)
	if got := s.MaxResponseTime(); math.Abs(got-2) > 1e-12 {
		t.Errorf("MaxResponseTime = %v, want unchanged 2", got)
	}
}
