// Package simcore provides a deterministic discrete-event simulation
// engine: a future-event list ordered by virtual time, a simulation
// clock, and reproducible per-component random number streams.
//
// The engine replaces the proprietary CSIM package used by the paper.
// All model logic (sessions, caches, queues) is built on top of the
// three primitives exposed here: Now, Schedule, and Run.
package simcore

import (
	"math"
	"math/bits"
)

// event is one entry of the future-event list. Events are values: the
// list hands out no handle, so nothing outside this file can hold one.
type event struct {
	key uint64 // math.Float64bits of the firing time
	seq uint64 // schedule order; breaks ties so runs are deterministic
	fn  func()
}

// before returns 1 if e fires before o, else 0. (time, seq) is a total
// order, so the firing sequence does not depend on the heap's shape.
// Stored times are never negative or −0, whose bit patterns sort like
// the floats, so the order is the borrow out of the 128-bit (key, seq)
// subtraction e−o: no branch on the data.
func (e *event) before(o *event) uint64 {
	_, b := bits.Sub64(e.seq, o.seq, 0)
	_, b = bits.Sub64(e.key, o.key, b)
	return b
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
	// firing: a handler runs and queue[0] still holds its event, whose
	// slot the handler's first schedule takes (one sift, not pop + push).
	firing bool
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

// Pending returns the number of events scheduled and not yet fired.
func (s *Simulator) Pending() int {
	if s.firing {
		return len(s.queue) - 1
	}
	return len(s.queue)
}

// Schedule registers fn to run delay seconds from now. A negative or
// NaN delay is treated as zero.
func (s *Simulator) Schedule(delay float64, fn func()) {
	s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt registers fn to run at absolute virtual time t. Times in
// the past are clamped to the current time.
func (s *Simulator) ScheduleAt(t float64, fn func()) {
	if !(t > s.now) {
		t = s.now // the past, NaN, and −0 at time +0 alike
	}
	ev := event{key: math.Float64bits(t), seq: s.seq, fn: fn}
	s.seq++
	if s.firing {
		s.firing = false
		s.fill(ev)
		return
	}
	s.queue = append(s.queue, event{})
	s.up(len(s.queue)-1, ev)
}

// up fills the hole at i with ev, first pulling down each later parent.
func (s *Simulator) up(i int, ev event) {
	q := s.queue
	for i > 0 {
		parent := (i - 1) / 2
		if ev.before(&q[parent]) == 0 {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

// fill puts ev into the hole at the root. The hole walks to a leaf,
// pulling up the earlier child with no branch on the data, and ev sifts
// up from there; a successor is usually late, so it seldom climbs far.
func (s *Simulator) fill(ev event) {
	q := s.queue
	n := len(q)
	i := 0
	for child := 1; child < n; child = 2*i + 1 {
		if r := child + 1; r < n {
			child += int(q[r].before(&q[child]))
		}
		q[i] = q[child]
		i = child
	}
	s.up(i, ev)
}

// settle pops an event whose handler scheduled nothing, zeroing the
// vacated tail slot so no closure stays reachable beyond the live heap.
func (s *Simulator) settle() {
	if !s.firing {
		return
	}
	s.firing = false
	n := len(s.queue) - 1
	last := s.queue[n]
	s.queue[n] = event{}
	s.queue = s.queue[:n]
	if n > 0 {
		s.fill(last)
	}
}

// Step executes the single next event. It returns false when the event
// list is empty. Called from a handler, it first removes the event
// that handler belongs to.
func (s *Simulator) Step() bool {
	s.settle()
	if len(s.queue) == 0 {
		return false
	}
	s.now = math.Float64frombits(s.queue[0].key)
	s.fired++
	s.firing = true
	s.queue[0].fn() // fn is read before the handler can overwrite the slot
	s.settle()
	return true
}

// Run executes events in time order until the clock would pass `until`
// or the event list drains. Events scheduled exactly at `until` fire.
// The clock finishes at `until` when it was reached, so a subsequent
// Run continues from there.
func (s *Simulator) Run(until float64) {
	s.settle()
	for len(s.queue) > 0 && math.Float64frombits(s.queue[0].key) <= until {
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

// ExpStream returns the named stream for a component that reads it
// only through Exp; its draws are Stream(name).Exp's.
func (s *Simulator) ExpStream(name string) *ExpStream {
	e := &ExpStream{next: expBatch}
	e.st.seed(s.seed, name)
	return e
}
