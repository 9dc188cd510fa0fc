package simcore

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(3, func() { got = append(got, 3) })
	s.Schedule(1, func() { got = append(got, 1) })
	s.Schedule(2, func() { got = append(got, 2) })
	s.Run(10)
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired as %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTieBreakBySequence(t *testing.T) {
	s := New(1)
	var got []string
	s.Schedule(5, func() { got = append(got, "a") })
	s.Schedule(5, func() { got = append(got, "b") })
	s.Schedule(5, func() { got = append(got, "c") })
	s.Run(5)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("tie-broken order = %v, want [a b c]", got)
	}
}

// An event scheduled for the current instant from inside a handler
// fires after everything already queued for that instant.
func TestSameTimeScheduleFromHandlerFiresLast(t *testing.T) {
	s := New(1)
	var got []string
	s.Schedule(5, func() {
		got = append(got, "a")
		s.Schedule(0, func() { got = append(got, "a0") })
		s.ScheduleAt(5, func() { got = append(got, "a5") })
	})
	s.Schedule(5, func() { got = append(got, "b") })
	s.Schedule(5, func() { got = append(got, "c") })
	s.Run(5)
	want := []string{"a", "b", "c", "a0", "a5"}
	if !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

func TestRunStopsAtUntil(t *testing.T) {
	s := New(1)
	fired := 0
	s.Schedule(1, func() { fired++ })
	s.Schedule(2, func() { fired++ })
	s.Schedule(3, func() { fired++ })
	s.Run(2)
	if fired != 2 {
		t.Errorf("fired = %d, want 2 (event at t=3 is beyond until)", fired)
	}
	if s.Now() != 2 {
		t.Errorf("Now() = %v, want clock to land on until=2", s.Now())
	}
	s.Run(3)
	if fired != 3 {
		t.Errorf("fired = %d after second Run, want 3", fired)
	}
}

func TestClockAdvancesToUntilWhenIdle(t *testing.T) {
	s := New(1)
	s.Run(100)
	if s.Now() != 100 {
		t.Errorf("Now() = %v, want 100 on an empty event list", s.Now())
	}
}

func TestScheduleWithinEvent(t *testing.T) {
	s := New(1)
	var times []float64
	var chain func()
	chain = func() {
		times = append(times, s.Now())
		if len(times) < 4 {
			s.Schedule(2.5, chain)
		}
	}
	s.Schedule(0, chain)
	s.Run(100)
	want := []float64{0, 2.5, 5, 7.5}
	for i, w := range want {
		if math.Abs(times[i]-w) > 1e-9 {
			t.Errorf("chain event %d at t=%v, want %v", i, times[i], w)
		}
	}
}

func TestNegativeAndNaNDelaysClamp(t *testing.T) {
	s := New(1)
	s.Schedule(5, func() {})
	s.Run(5)
	fired := 0
	s.Schedule(-3, func() { fired++ })
	s.Schedule(math.NaN(), func() { fired++ })
	s.ScheduleAt(1, func() { fired++ }) // in the past: clamps to now
	s.Run(5)
	if fired != 3 {
		t.Errorf("fired = %d, want 3 (clamped events fire immediately)", fired)
	}
}

func TestStepOnEmptyList(t *testing.T) {
	s := New(1)
	if s.Step() {
		t.Error("Step() = true on an empty event list")
	}
	s.Schedule(1, func() {})
	if !s.Step() || s.Step() {
		t.Error("Step() should fire the one event, then report an empty list")
	}
	if s.Now() != 1 || s.EventsFired() != 1 {
		t.Errorf("Now() = %v, EventsFired() = %d, want 1 and 1", s.Now(), s.EventsFired())
	}
}

// A fired event's closure must not stay reachable from the slot its
// pop vacated, or every handler's captures live as long as the list.
func TestFiredEventSlotCleared(t *testing.T) {
	s := New(1)
	for i := 0; i < 64; i++ {
		s.Schedule(float64(i%7), func() {})
	}
	for s.Pending() > 10 {
		s.Step()
	}
	for i, ev := range s.queue[len(s.queue):cap(s.queue)] {
		if ev.fn != nil {
			t.Fatalf("slot %d past the live heap still holds a closure", len(s.queue)+i)
		}
	}
}

// −0 compares equal to +0, but its bit pattern is the largest key of
// all: unless ScheduleAt maps it to +0 it would fire after every other
// event instead of in schedule order.
func TestNegativeZeroFiresInScheduleOrder(t *testing.T) {
	s := New(1)
	var got []string
	s.ScheduleAt(0, func() { got = append(got, "a") })
	s.ScheduleAt(math.Copysign(0, -1), func() { got = append(got, "b") })
	s.Schedule(math.Copysign(0, -1), func() { got = append(got, "c") })
	s.ScheduleAt(0, func() { got = append(got, "d") })
	s.ScheduleAt(1, func() { got = append(got, "e") })
	for s.Step() {
		if s.Now() == 0 && math.Signbit(s.Now()) {
			t.Fatalf("clock reads −0 after firing %s", got[len(got)-1])
		}
	}
	if want := []string{"a", "b", "c", "d", "e"}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// An event at +Inf stays pending under every finite horizon.
func TestInfiniteTimeNeverFiresUnderFiniteRun(t *testing.T) {
	s := New(1)
	fired := 0
	s.ScheduleAt(math.Inf(1), func() { fired++ })
	s.Schedule(1, func() {})
	s.Run(math.MaxFloat64)
	if fired != 0 || s.Pending() != 1 {
		t.Fatalf("after Run(MaxFloat64): fired = %d, Pending = %d; want 0 and 1", fired, s.Pending())
	}
	s.Run(math.Inf(1))
	if fired != 1 || s.Pending() != 0 || !math.IsInf(s.Now(), 1) {
		t.Fatalf("after Run(+Inf): fired = %d, Pending = %d, Now = %v; want 1, 0, +Inf", fired, s.Pending(), s.Now())
	}
}

// Pending read inside a handler excludes the event that is firing, and
// counts each successor the handler arms, whether it took the firing
// event's slot (the first) or was pushed (the rest).
func TestPendingInsideHandler(t *testing.T) {
	for _, arms := range []int{0, 1, 3} {
		s := New(1)
		s.Schedule(10, func() {})
		s.Schedule(10, func() {})
		s.Schedule(1, func() {
			if got := s.Pending(); got != 2 {
				t.Errorf("arms=%d: Pending on entry = %d, want 2", arms, got)
			}
			for i := 1; i <= arms; i++ {
				s.Schedule(float64(i), func() {})
				if got := s.Pending(); got != 2+i {
					t.Errorf("arms=%d: Pending after arming %d = %d, want %d", arms, i, got, 2+i)
				}
			}
		})
		s.Step()
		if got := s.Pending(); got != 2+arms {
			t.Errorf("arms=%d: Pending after Step = %d, want %d", arms, got, 2+arms)
		}
		s.Run(100)
		if got := s.EventsFired(); got != uint64(3+arms) {
			t.Errorf("arms=%d: EventsFired = %d, want %d", arms, got, 3+arms)
		}
	}
}

// A handler that calls Step fires the next event in (time, seq) order,
// whether or not the handler armed a successor first, and its own event
// never fires twice.
func TestStepFromHandler(t *testing.T) {
	s := New(1)
	var got []string
	rec := func(name string) func() { return func() { got = append(got, name) } }
	s.Schedule(1, func() {
		got = append(got, "a")
		s.Schedule(4, rec("z")) // takes a's slot, due at 5
		s.Step()                // fires b, not z
		if p := s.Pending(); p != 3 {
			t.Errorf("Pending after a nested Step = %d, want 3 (c, d, z)", p)
		}
	})
	s.Schedule(2, rec("b"))
	s.Schedule(2, rec("c"))
	s.Schedule(3, func() {
		got = append(got, "d")
		s.Step() // nothing armed: removes d, fires z
		s.Schedule(0, rec("y"))
		s.Step() // fires y
		if s.Step() {
			t.Error("Step on a drained list from a handler fired an event")
		}
	})
	s.Run(10)
	if want := []string{"a", "b", "c", "d", "z", "y"}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if s.EventsFired() != 6 || s.Pending() != 0 {
		t.Fatalf("EventsFired = %d, Pending = %d; want 6 and 0", s.EventsFired(), s.Pending())
	}
}

// A handler that calls Run fires only what is due by until; the event
// it belongs to is not the next one any more.
func TestRunFromHandler(t *testing.T) {
	s := New(1)
	var got []string
	s.Schedule(1, func() {
		got = append(got, "a")
		s.Run(2)
	})
	s.Schedule(3, func() { got = append(got, "b") })
	s.Step()
	if !slices.Equal(got, []string{"a"}) || s.Now() != 2 || s.Pending() != 1 {
		t.Fatalf("after a handler's Run(2): fired %v, Now = %v, Pending = %d; want [a], 2, 1", got, s.Now(), s.Pending())
	}
}

// eventList is what the oracle script drives: the real Simulator and
// the reference list below.
type eventList interface {
	Now() float64
	EventsFired() uint64
	Pending() int
	Schedule(delay float64, fn func())
	ScheduleAt(t float64, fn func())
	Step() bool
	Run(until float64)
}

// refList is the reference future-event list: an event is appended
// and the list stably re-sorted by time, so insertion order is the
// tie-break. It states the clamping and Run rules on its own.
type refList struct {
	now    float64
	fired  uint64
	events []refEvent
}

type refEvent struct {
	time float64
	fn   func()
}

func (r *refList) Now() float64        { return r.now }
func (r *refList) EventsFired() uint64 { return r.fired }
func (r *refList) Pending() int        { return len(r.events) }

func (r *refList) Schedule(delay float64, fn func()) {
	if !(delay > 0) {
		delay = 0
	}
	r.ScheduleAt(r.now+delay, fn)
}

func (r *refList) ScheduleAt(t float64, fn func()) {
	if !(t > r.now) {
		t = r.now
	}
	r.events = append(r.events, refEvent{t, fn})
	sort.SliceStable(r.events, func(i, j int) bool { return r.events[i].time < r.events[j].time })
}

func (r *refList) Step() bool {
	if len(r.events) == 0 {
		return false
	}
	ev := r.events[0]
	r.events = r.events[1:]
	r.now = ev.time
	r.fired++
	ev.fn()
	return true
}

func (r *refList) Run(until float64) {
	for len(r.events) > 0 && r.events[0].time <= until {
		r.Step()
	}
	if until > r.now {
		r.now = until
	}
}

// oracleRecord is one line of a script's log: a firing (id ≥ 0), the
// state after a top-level operation (id = -1), or the state inside a
// handler after it armed a child or called Step (id = -2).
type oracleRecord struct {
	id      int
	now     float64
	fired   uint64
	pending int
}

// runOracleScript drives l with a script that is a pure function of
// seed, and returns everything observable. All times sit on a 1/8 s
// grid (exact in binary), so ties and Run boundaries that land exactly
// on an event time are common.
func runOracleScript(l eventList, seed int64, ops int) []oracleRecord {
	rng := rand.New(rand.NewSource(seed))
	var log []oracleRecord
	nextID := 0
	grid := func(h uint64) float64 { return float64(h%321) / 8 } // 0–40 s
	state := func(id int) oracleRecord {
		return oracleRecord{id: id, now: l.Now(), fired: l.EventsFired(), pending: l.Pending()}
	}
	// arm schedules one event in the manner picked by h; its handler
	// logs the firing and arms 0–3 children chosen by its own id, so a
	// wrong firing order shows up as a diverging log, not as a crash.
	// One handler in eight then calls Step itself.
	var arm func(h uint64)
	arm = func(h uint64) {
		id := nextID
		nextID++
		fn := func() {
			log = append(log, state(id))
			c := splitmix64(uint64(seed) ^ uint64(id)<<20)
			nested := (c>>40)%8 == 0
			for n := [...]int{0, 0, 0, 0, 0, 1, 1, 1, 2, 3}[c%10]; n > 0; n-- {
				c = splitmix64(c)
				arm(c)
				log = append(log, state(-2))
			}
			if nested {
				l.Step()
				log = append(log, state(-2))
			}
		}
		switch (h >> 8) % 14 {
		case 12:
			l.ScheduleAt(math.Copysign(0, -1), fn) // −0 ties +0 while Now is 0
		case 13:
			l.Schedule(math.Copysign(0, -1), fn)
		case 0:
			l.Schedule(0, fn)
		case 1:
			l.ScheduleAt(l.Now(), fn)
		case 2:
			l.Schedule(-grid(h)-1, fn)
		case 3:
			l.Schedule(math.NaN(), fn)
		case 4:
			l.ScheduleAt(l.Now()-grid(h)-1, fn)
		case 5:
			l.ScheduleAt(math.NaN(), fn)
		case 6, 7:
			l.ScheduleAt(l.Now()+grid(h), fn)
		default:
			l.Schedule(grid(h), fn)
		}
	}
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(10); {
		case k < 5:
			arm(rng.Uint64())
		case k < 8:
			l.Step()
		case k == 8:
			l.Run(l.Now() + float64(rng.Intn(41))/8) // 0–5 s on the grid
		default:
			l.Run(l.Now() - 1) // already passed: fires nothing, clock stays
		}
		log = append(log, state(-1))
	}
	return log
}

// TestEventListMatchesOracle replays one seeded script of Schedule,
// ScheduleAt, Step and Run against the Simulator and the reference
// list and requires the same firing sequence (id and clock at firing)
// and the same EventsFired, Pending and Now after every operation, at
// every firing and inside handlers.
func TestEventListMatchesOracle(t *testing.T) {
	const ops = 20000
	for _, seed := range []int64{1, 2, 3} {
		got := runOracleScript(New(1), seed, ops)
		want := runOracleScript(&refList{}, seed, ops)
		if len(got) != len(want) {
			t.Errorf("seed %d: %d log records, oracle has %d", seed, len(got), len(want))
		}
		firings := 0
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("seed %d: record %d = %+v, oracle has %+v", seed, i, got[i], want[i])
			}
			if got[i].id >= 0 {
				firings++
			}
		}
		if firings < ops {
			t.Errorf("seed %d: script fired only %d events in %d operations", seed, firings, ops)
		}
	}
}

// newHold builds the event list at the size the paper runs it: n
// timers, each re-arming itself through one closure built up front
// with an Exp(15) delay (500 clients and 15 s think time in the paper).
func newHold(n int) *Simulator {
	s := New(1)
	st := s.Stream("hold")
	for i := 0; i < n; i++ {
		var rearm func()
		rearm = func() { s.Schedule(st.Exp(15), rearm) }
		s.Schedule(st.Exp(15), rearm)
	}
	return s
}

func TestScheduleStepZeroAlloc(t *testing.T) {
	s := newHold(500)
	for i := 0; i < 2000; i++ {
		s.Step()
	}
	if avg := testing.AllocsPerRun(2000, func() { s.Step() }); avg != 0 {
		t.Errorf("Step of a self-re-arming timer allocates %v times, want 0", avg)
	}
}

// BenchmarkSimcoreHold is the classic hold operation — fire the next
// event, whose handler arms its successor — on a list of 500 pending
// events.
func BenchmarkSimcoreHold(b *testing.B) {
	s := newHold(500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed uint64) []float64 {
		s := New(seed)
		st := s.Stream("arrivals")
		var samples []float64
		var next func()
		next = func() {
			samples = append(samples, s.Now())
			s.Schedule(st.Exp(10), next)
		}
		s.Schedule(0, next)
		s.Run(500)
		return samples
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverges at event %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical histories")
		}
	}
}

func TestStreamIndependenceFromCreationOrder(t *testing.T) {
	s1 := New(7)
	a := s1.Stream("alpha")
	_ = s1.Stream("beta")
	firstA := a.Float64()

	s2 := New(7)
	_ = s2.Stream("beta")
	a2 := s2.Stream("alpha")
	if got := a2.Float64(); got != firstA {
		t.Errorf("stream draw depends on creation order: %v vs %v", got, firstA)
	}
}

func TestExpMean(t *testing.T) {
	st := NewStream(1, "exp")
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += st.Exp(15)
	}
	mean := sum / n
	if math.Abs(mean-15) > 0.3 {
		t.Errorf("sample mean of Exp(15) = %v, want ~15", mean)
	}
}

func TestExpNonPositiveMean(t *testing.T) {
	st := NewStream(1, "exp0")
	if got := st.Exp(0); got != 0 {
		t.Errorf("Exp(0) = %v, want 0", got)
	}
	if got := st.Exp(-5); got != 0 {
		t.Errorf("Exp(-5) = %v, want 0", got)
	}
}

func TestUniformIntBoundsInclusive(t *testing.T) {
	st := NewStream(3, "hits")
	seen := make(map[int]bool)
	for i := 0; i < 20000; i++ {
		v := st.UniformInt(5, 15)
		if v < 5 || v > 15 {
			t.Fatalf("UniformInt(5,15) = %d out of range", v)
		}
		seen[v] = true
	}
	for v := 5; v <= 15; v++ {
		if !seen[v] {
			t.Errorf("UniformInt(5,15) never produced %d in 20000 draws", v)
		}
	}
	if got := st.UniformInt(9, 9); got != 9 {
		t.Errorf("UniformInt(9,9) = %d, want 9", got)
	}
	if got := st.UniformInt(9, 3); got != 9 {
		t.Errorf("UniformInt(lo>hi) = %d, want lo", got)
	}
}

func TestGeometricMeanAndSupport(t *testing.T) {
	st := NewStream(4, "pages")
	const n = 200000
	sum := 0
	for i := 0; i < n; i++ {
		v := st.Geometric(20)
		if v < 1 {
			t.Fatalf("Geometric produced %d < 1", v)
		}
		sum += v
	}
	mean := float64(sum) / n
	if math.Abs(mean-20) > 0.5 {
		t.Errorf("sample mean of Geometric(20) = %v, want ~20", mean)
	}
	if got := st.Geometric(0.5); got != 1 {
		t.Errorf("Geometric(mean<=1) = %d, want 1", got)
	}
}

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(20, 1)
	if len(w) != 20 {
		t.Fatalf("len = %d, want 20", len(w))
	}
	var sum float64
	for _, v := range w {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum to %v, want 1", sum)
	}
	for j := 1; j < len(w); j++ {
		if w[j] > w[j-1] {
			t.Errorf("weights not monotone at %d: %v > %v", j, w[j], w[j-1])
		}
	}
	// Pure Zipf: w[0]/w[j] == j+1.
	for j := range w {
		ratio := w[0] / w[j]
		if math.Abs(ratio-float64(j+1)) > 1e-9 {
			t.Errorf("w[0]/w[%d] = %v, want %d", j, ratio, j+1)
		}
	}
	if got := ZipfWeights(0, 1); got != nil {
		t.Errorf("ZipfWeights(0,1) = %v, want nil", got)
	}
}

func TestZipfWeightsProperty(t *testing.T) {
	f := func(kRaw uint8, thetaRaw uint8) bool {
		k := int(kRaw%100) + 1
		theta := float64(thetaRaw%30) / 10
		w := ZipfWeights(k, theta)
		var sum float64
		for _, v := range w {
			if v <= 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEventsFiredAndPending(t *testing.T) {
	s := New(1)
	for i := 0; i < 5; i++ {
		s.Schedule(float64(i), func() {})
	}
	if s.Pending() != 5 {
		t.Errorf("Pending = %d, want 5", s.Pending())
	}
	s.Run(10)
	if s.EventsFired() != 5 {
		t.Errorf("EventsFired = %d, want 5", s.EventsFired())
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d after run, want 0", s.Pending())
	}
}
