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
// A vacant slot has key MaxUint64, which loses to every stored time, a
// nil fn, and as seq the next vacant slot (len(slots) ends the list).
type event struct {
	key uint64 // math.Float64bits of the firing time
	seq uint64 // schedule order; breaks ties so runs are deterministic
	fn  func()
}

// before returns 1 if the event (k, q) fires before (ok, oq), else 0:
// the borrow of the 128-bit subtraction, no branch on the data. Stored
// times are ≥ +0, whose bits sort like the floats; (time, seq) is total.
func before(k, q, ok, oq uint64) uint64 {
	_, b := bits.Sub64(q, oq, 0)
	_, b = bits.Sub64(k, ok, b)
	return b
}

// Simulator owns the virtual clock and the future-event list.
// It is not safe for concurrent use; a simulation is a single-threaded
// sequential program over virtual time.
type Simulator struct {
	now   float64
	seq   uint64
	slots []event
	tree  []int32 // winner tree: leaf tree[n+i] is slot i, tree[j] the earlier of tree[2j] and tree[2j+1], tree[1] the next
	free  int     // first vacant slot; len(slots) when none is
	live  int     // pending events, a firing one not counted
	seed  uint64
	fired uint64
	// firing: a handler runs, and slot tree[1] keeps its event for the
	// handler's first schedule to overwrite (one replay, not two).
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
func (s *Simulator) Pending() int { return s.live }

// Schedule registers fn to run delay seconds from now. A negative or
// NaN delay is treated as zero.
func (s *Simulator) Schedule(delay float64, fn func()) {
	s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt registers fn to run at absolute virtual time t. Times in
// the past are clamped to the current time.
func (s *Simulator) ScheduleAt(t float64, fn func()) {
	s.seq++
	s.ScheduleAtSeq(t, s.seq-1, fn)
}

// Reserve takes n sequence numbers for ScheduleAtSeq and returns the first.
func (s *Simulator) Reserve(n int) uint64 {
	s.seq += uint64(n)
	return s.seq - uint64(n)
}

// ScheduleAtSeq is ScheduleAt with a sequence number from a Reserve
// block, each used once: a chain that arms each successor from its
// predecessor's handler fires as if all were scheduled at the Reserve.
func (s *Simulator) ScheduleAtSeq(t float64, seq uint64, fn func()) {
	if !(t > s.now) {
		t = s.now // the past, NaN, and −0 at time +0 alike
	}
	s.live++
	i := s.free
	if s.firing {
		s.firing, i = false, int(s.tree[1])
	} else {
		if i == len(s.slots) {
			s.grow()
		}
		s.free = int(s.slots[i].seq)
	}
	s.slots[i] = event{key: math.Float64bits(t), seq: seq, fn: fn}
	s.replay(i)
}

// replay re-runs the matches from slot i's leaf to the root. The path
// follows from i, so every level's loads can issue at once; only the
// winner, carried in registers and picked by a borrow mask, is serial.
func (s *Simulator) replay(i int) {
	sl, t := s.slots, s.tree
	w, k, q := int32(i), sl[i].key, sl[i].seq
	for j := len(sl) + i; j > 1; j >>= 1 {
		o := t[j^1]
		ok, oq := sl[o].key, sl[o].seq
		m := -before(ok, oq, k, q)
		w ^= (w ^ o) & int32(m)
		k ^= (k ^ ok) & m
		q ^= (q ^ oq) & m
		t[j>>1] = w
	}
}

// grow doubles the slots when none is vacant, threads the new ones onto
// the free list s.free already heads, and rebuilds the tree bottom-up.
func (s *Simulator) grow() {
	n := max(2*len(s.slots), 64)
	sl := append(s.slots, make([]event, n-len(s.slots))...)
	for i := len(s.slots); i < n; i++ {
		sl[i] = event{key: math.MaxUint64, seq: uint64(i + 1)}
	}
	t := make([]int32, 2*n)
	for j := 2*n - 1; j > 0; j-- {
		a, b := int32(j-n), int32(j-n) // a leaf is its slot
		if j < n {
			a, b = t[2*j], t[2*j+1]
		}
		t[j] = a ^ (a^b)&int32(-before(sl[b].key, sl[b].seq, sl[a].key, sl[a].seq))
	}
	s.slots, s.tree = sl, t
}

// settle vacates the slot of an event whose handler scheduled nothing,
// so its closure stays reachable no longer than the event pends.
func (s *Simulator) settle() {
	if !s.firing {
		return
	}
	s.firing = false
	i := int(s.tree[1])
	s.slots[i] = event{key: math.MaxUint64, seq: uint64(s.free)}
	s.free = i
	s.replay(i)
}

// Step executes the single next event. It returns false when the event
// list is empty. Called from a handler, it first removes the event
// that handler belongs to.
func (s *Simulator) Step() bool {
	s.settle()
	if s.live == 0 {
		return false
	}
	ev := &s.slots[s.tree[1]]
	s.now = math.Float64frombits(ev.key)
	s.fired++
	s.live--
	s.firing = true
	ev.fn() // fn is read before the handler can overwrite the slot
	s.settle()
	return true
}

// Run executes events in time order until the clock would pass `until`
// or the event list drains. Events scheduled exactly at `until` fire.
// The clock finishes at `until` when it was reached, so a subsequent
// Run continues from there.
func (s *Simulator) Run(until float64) {
	s.settle()
	for s.live > 0 && math.Float64frombits(s.slots[s.tree[1]].key) <= until {
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
