package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// DomainClass identifies a domain's popularity class under the
// two-tier (RR2 / TTL-2) partitioning.
type DomainClass int

const (
	// ClassNormal marks a domain whose relative hidden load weight is
	// at or below the class threshold β.
	ClassNormal DomainClass = iota + 1
	// ClassHot marks a domain above the class threshold β.
	ClassHot
)

// String implements fmt.Stringer.
func (c DomainClass) String() string {
	switch c {
	case ClassNormal:
		return "normal"
	case ClassHot:
		return "hot"
	default:
		return fmt.Sprintf("DomainClass(%d)", int(c))
	}
}

// ErrNoServers is returned by Policy.Schedule when every server in the
// cluster is down: there is no address the DNS could meaningfully hand
// out, so the caller must answer "no server available" (SERVFAIL on
// the live path).
var ErrNoServers = errors.New("core: no server available")

// ErrLastSchedulable is returned by DrainServer for the only server a
// selector may still pick (member, not down, not draining): draining it
// would leave every query to ErrNoServers.
var ErrLastSchedulable = errors.New("core: last schedulable server")

// State is the information the DNS scheduler works from: the server
// cluster, the current estimate of each domain's hidden load weight,
// the two-tier class partition derived from those weights, the
// per-server alarm flags raised by the feedback mechanism, the
// per-server liveness flags maintained by failure detection, and the
// membership lifecycle (member / draining / retired) driven by
// operator reconfiguration.
//
// State is mutated by the estimator (SetWeights), by server alarm
// signals (SetAlarm), by the liveness machinery (SetDown), and by
// reconfiguration (AddServer, SetCapacity, DrainServer,
// ReinstateServer, RemoveServer); selectors and TTL policies read it
// on every address request.
//
// Concurrency: State publishes an immutable Snapshot through an atomic
// pointer. Readers (including Policy.Schedule) never block and may run
// concurrently with any mutator; mutators serialize among themselves
// on an internal mutex, rebuild the snapshot copy-on-write, and
// publish it atomically. A reader holding a Snapshot sees one frozen,
// internally consistent state; it does not observe later mutations.
// State therefore has no read accessors: a reader takes one Snapshot
// per decision and reads everything from it.
//
// Alarms and liveness are distinct: an alarmed server is overloaded
// but serving (it is skipped unless every eligible server is alarmed),
// while a down server is gone and never eligible. Membership changes
// (SetDown and the reconfiguration mutators) bump the state version so
// TTL policies recalibrate against the surviving cluster.
type State struct {
	mu   sync.Mutex // serializes mutators; readers never take it
	snap atomic.Pointer[Snapshot]

	// Transition counters for observability: how often the feedback
	// machinery actually changed a server's standing. Only real flips
	// count — a repeated identical signal is a no-op.
	alarmFlips atomic.Uint64
	downFlips  atomic.Uint64
}

// NewState creates scheduler state for the given cluster and number of
// connected domains. The class threshold defaults to the paper's
// β = 1/K. Initial weights are uniform; call SetWeights once estimates
// are available. Every server starts as an active member.
func NewState(cluster *Cluster, domains int) (*State, error) {
	if cluster == nil {
		return nil, errors.New("core: nil cluster")
	}
	if domains <= 0 {
		return nil, errors.New("core: need at least one domain")
	}
	sn := &Snapshot{
		cluster:  cluster,
		beta:     1 / float64(domains),
		weights:  make([]float64, domains),
		alarmed:  make([]bool, cluster.N()),
		down:     make([]bool, cluster.N()),
		member:   make([]bool, cluster.N()),
		draining: make([]bool, cluster.N()),
	}
	for i := range sn.weights {
		sn.weights[i] = 1 / float64(domains)
	}
	for i := range sn.member {
		sn.member[i] = true
	}
	sn.reclassify()
	sn.recount()
	s := &State{}
	s.snap.Store(sn)
	return s, nil
}

// Snapshot returns the current immutable view of the state. The
// returned value never changes; it is safe for unsynchronized
// concurrent use and is the unit the query hot path works from.
func (s *State) Snapshot() *Snapshot { return s.snap.Load() }

// SetWeights installs new relative hidden load weight estimates. The
// weights are normalized to sum to one; the two-tier class partition
// and class means are recomputed. The number of domains must not
// change over the life of a State.
func (s *State) SetWeights(w []float64) error {
	var sum float64
	for i, v := range w {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: weight %d is %v, want non-negative finite", i, v)
		}
		sum += v
	}
	if sum <= 0 {
		return errors.New("core: weights sum to zero")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.snap.Load()
	if len(w) != len(cur.weights) {
		return fmt.Errorf("core: weight vector length %d, want %d", len(w), len(cur.weights))
	}
	next := cur.clone()
	for i, v := range w {
		next.weights[i] = v / sum
	}
	next.reclassify()
	s.snap.Store(next)
	return nil
}

// SetAlarm records an alarm (overloaded) or normal signal from server
// i. An out-of-range index is an error: it means a misconfigured or
// misbehaving reporter, which the caller should surface rather than
// silently drop. Alarm signals for retired slots are ignored (a
// straggler report from a server already removed is not an error).
func (s *State) SetAlarm(i int, alarmed bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.snap.Load()
	if i < 0 || i >= len(cur.alarmed) {
		return fmt.Errorf("core: alarm for server %d out of range [0,%d)", i, len(cur.alarmed))
	}
	if !cur.member[i] || cur.alarmed[i] == alarmed {
		return nil
	}
	next := cur.clone()
	next.alarmed[i] = alarmed
	next.recount()
	s.snap.Store(next)
	s.alarmFlips.Add(1)
	return nil
}

// AlarmTransitions returns how many SetAlarm calls changed a server's
// alarm flag since creation (repeated identical signals do not count).
func (s *State) AlarmTransitions() uint64 { return s.alarmFlips.Load() }

// DownTransitions returns how many SetDown calls changed a server's
// liveness since creation (repeated identical signals do not count).
func (s *State) DownTransitions() uint64 { return s.downFlips.Load() }

// SetDown marks server i as failed (down=true) or recovered. A down
// server is excluded from every selector regardless of alarms; a
// membership change bumps the state version so TTL policies
// recalibrate against the surviving cluster. Liveness signals for
// retired slots are ignored.
func (s *State) SetDown(i int, down bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.snap.Load()
	if i < 0 || i >= len(cur.down) {
		return fmt.Errorf("core: liveness for server %d out of range [0,%d)", i, len(cur.down))
	}
	if !cur.member[i] || cur.down[i] == down {
		return nil
	}
	next := cur.clone()
	next.down[i] = down
	next.recount()
	next.version++
	s.snap.Store(next)
	s.downFlips.Add(1)
	return nil
}

// AddServer appends a new server slot with the given capacity and
// returns its index. The new server is an active member immediately:
// selectors may pick it on the very next decision. The capacity may
// violate the sorted order required of statically built clusters —
// relative capacities are renormalized against the member maximum.
func (s *State) AddServer(capacity float64) (int, error) {
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		return 0, fmt.Errorf("core: capacity %v, want positive finite", capacity)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.snap.Load()
	next := cur.clone()
	next.cluster = cur.cluster.withCapacity(-1, capacity)
	next.alarmed = append(next.alarmed, false)
	next.down = append(next.down, false)
	next.member = append(next.member, true)
	next.draining = append(next.draining, false)
	next.recount()
	next.version++
	s.snap.Store(next)
	return len(next.member) - 1, nil
}

// SetCapacity changes the absolute capacity of member server i,
// renormalizing the relative capacity vector and recalibrating TTLs
// via the version bump.
func (s *State) SetCapacity(i int, capacity float64) error {
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		return fmt.Errorf("core: capacity %v, want positive finite", capacity)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.snap.Load()
	if i < 0 || i >= len(cur.member) || !cur.member[i] {
		return fmt.Errorf("core: capacity change for non-member server %d", i)
	}
	if cur.cluster.Capacity(i) == capacity {
		return nil
	}
	next := cur.clone()
	next.cluster = cur.cluster.withCapacity(i, capacity)
	next.recount()
	next.version++
	s.snap.Store(next)
	return nil
}

// DrainServer puts member server i into the draining state: selectors
// stop handing out new mappings to it immediately, but it remains a
// member (and should stay resolvable / serving) until the hidden-load
// window of its outstanding TTLs has expired, at which point the
// caller retires it with RemoveServer. Draining an already-draining
// server is a no-op. Draining the only eligible server is refused with
// ErrLastSchedulable; a down server may always drain, since it takes
// no mappings either way.
func (s *State) DrainServer(i int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.snap.Load()
	if i < 0 || i >= len(cur.member) || !cur.member[i] {
		return fmt.Errorf("core: drain of non-member server %d", i)
	}
	if cur.draining[i] {
		return nil
	}
	if !cur.down[i] && cur.nEligible <= 1 {
		return fmt.Errorf("core: refusing to drain server %d: %w", i, ErrLastSchedulable)
	}
	next := cur.clone()
	next.draining[i] = true
	next.recount()
	next.version++
	s.snap.Store(next)
	return nil
}

// ReinstateServer cancels a drain or revives a retired slot at the
// given capacity, returning it to full membership with cleared alarm
// and down flags. It is how a re-JOINing server reclaims its old
// index.
func (s *State) ReinstateServer(i int, capacity float64) error {
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		return fmt.Errorf("core: capacity %v, want positive finite", capacity)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.snap.Load()
	if i < 0 || i >= len(cur.member) {
		return fmt.Errorf("core: reinstate of server %d out of range [0,%d)", i, len(cur.member))
	}
	next := cur.clone()
	next.member[i] = true
	next.draining[i] = false
	next.alarmed[i] = false
	next.down[i] = false
	if cur.cluster.Capacity(i) != capacity {
		next.cluster = cur.cluster.withCapacity(i, capacity)
	}
	next.recount()
	next.version++
	s.snap.Store(next)
	return nil
}

// RemoveServer retires slot i: it is no longer a member, is never
// scheduled, and its alarm/down/draining flags are cleared. The slot
// index remains reserved (indices are stable) and may be revived by
// ReinstateServer. Removing the last member is an error — the
// scheduler must always have at least one slot to hand out.
func (s *State) RemoveServer(i int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.snap.Load()
	if i < 0 || i >= len(cur.member) || !cur.member[i] {
		return fmt.Errorf("core: removal of non-member server %d", i)
	}
	if cur.nMember == 1 {
		return fmt.Errorf("core: cannot remove server %d: it is the last member", i)
	}
	next := cur.clone()
	next.member[i] = false
	next.draining[i] = false
	next.alarmed[i] = false
	next.down[i] = false
	next.recount()
	next.version++
	s.snap.Store(next)
	return nil
}
