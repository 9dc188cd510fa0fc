// Package simcore provides a deterministic discrete-event simulation
// engine: a future-event list ordered by virtual time, a simulation
// clock, and reproducible per-component random number streams.
//
// The engine replaces the proprietary CSIM package used by the paper.
// All model logic (sessions, caches, queues) is built on top of the
// three primitives exposed here: Now, Schedule, and Run.
package simcore

import "math"

// event is one entry of the future-event list. Events are values: the
// list hands out no handle, so nothing outside this file can hold one.
type event struct {
	time float64
	seq  uint64 // schedule order; breaks ties so runs are deterministic
	fn   func()
}

// before reports whether e fires before o. (time, seq) is a total
// order, so the firing sequence does not depend on the heap's shape.
func (e *event) before(o *event) bool {
	return e.time < o.time || (e.time == o.time && e.seq < o.seq)
}

// Simulator owns the virtual clock and the future-event list.
// It is not safe for concurrent use; a simulation is a single-threaded
// sequential program over virtual time.
type Simulator struct {
	now   float64
	seq   uint64
	queue []event // binary min-heap by (time, seq)
	seed  uint64
	fired uint64
}

// New returns a simulator whose random streams all derive from seed.
// Two simulators built from the same seed replay identical histories.
func New(seed uint64) *Simulator {
	return &Simulator{seed: seed}
}

// Now returns the current virtual time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// EventsFired returns the number of events executed so far, a cheap
// progress and performance counter.
func (s *Simulator) EventsFired() uint64 { return s.fired }

// Pending returns the number of events currently scheduled.
func (s *Simulator) Pending() int { return len(s.queue) }

// Schedule registers fn to run delay seconds from now. A negative or
// NaN delay is treated as zero.
func (s *Simulator) Schedule(delay float64, fn func()) {
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt registers fn to run at absolute virtual time t. Times in
// the past are clamped to the current time.
func (s *Simulator) ScheduleAt(t float64, fn func()) {
	if t < s.now || math.IsNaN(t) {
		t = s.now
	}
	ev := event{time: t, seq: s.seq, fn: fn}
	s.seq++
	// Sift up: move the hole at the tail towards the root, pulling
	// later parents down into it, then drop the new event in.
	s.queue = append(s.queue, event{})
	q := s.queue
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

// Step executes the single next event. It returns false when the event
// list is empty.
func (s *Simulator) Step() bool {
	q := s.queue
	if len(q) == 0 {
		return false
	}
	ev := q[0]
	// Sift down: the root is a hole; pull the earlier child up into it
	// until the former tail event fits. The vacated tail slot is zeroed
	// so no closure stays reachable from beyond the live heap.
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	s.queue = q
	i := 0
	for child := 1; child < n; child = 2*i + 1 {
		if r := child + 1; r < n && q[r].before(&q[child]) {
			child = r
		}
		if !q[child].before(&last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	if n > 0 {
		q[i] = last
	}
	s.now = ev.time
	s.fired++
	ev.fn()
	return true
}

// Run executes events in time order until the clock would pass `until`
// or the event list drains. Events scheduled exactly at `until` fire.
// The clock finishes at `until` when it was reached, so a subsequent
// Run continues from there.
func (s *Simulator) Run(until float64) {
	for len(s.queue) > 0 && s.queue[0].time <= until {
		s.Step()
	}
	if s.now < until {
		s.now = until
	}
}

// Stream returns an independent deterministic random stream for the
// named component. The same (seed, name) pair always yields the same
// stream, regardless of creation order, so adding a new consumer never
// perturbs the draws seen by existing ones.
func (s *Simulator) Stream(name string) *Stream {
	return NewStream(s.seed, name)
}
