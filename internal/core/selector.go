package core

import (
	"sync"
	"sync/atomic"
)

// Selector chooses the Web server for an address request against one
// immutable state snapshot.
//
// Selectors are stateful (round-robin pointers, accumulated loads) but
// safe for concurrent use: the rotation pointers are atomics and the
// accounting selectors (WRR, DAL, MRL) take a small internal lock.
// Under concurrent callers the round-robin rotation is approximate —
// two simultaneous requests may pick the same server — while
// single-threaded call sequences reproduce the paper's behavior
// exactly, which keeps the simulator deterministic.
type Selector interface {
	// Select returns the index of the chosen server for an address
	// request originating from the given domain, or -1 when no server
	// is available (every server is marked down).
	Select(sn *Snapshot, domain int) int
	// Name returns the selector's name as used in the paper (RR, RR2,
	// PRR, PRR2, DAL).
	Name() string
}

// rrSelector implements the conventional round-robin policy used by
// the NCSA multi-server prototype: servers are assigned cyclically,
// skipping servers that declared themselves critically loaded. The
// rotation pointer is a lock-free atomic.
type rrSelector struct {
	last atomic.Int64
}

// NewRR returns the round-robin selector, the paper's lower-bound
// baseline.
func NewRR() Selector {
	r := &rrSelector{}
	r.last.Store(-1)
	return r
}

func (r *rrSelector) Name() string { return "RR" }

func (r *rrSelector) Select(sn *Snapshot, _ int) int {
	n := sn.Cluster().N()
	last := int(r.last.Load())
	for k := 1; k <= n; k++ {
		i := (last + k) % n
		if sn.available(i) {
			r.last.Store(int64(i))
			return i
		}
	}
	// Every server is down: availability only rejects the whole cluster
	// on liveness, never on alarms alone.
	return -1
}

func (r *rrSelector) cursors() []int64 { return []int64{r.last.Load()} }

func (r *rrSelector) restoreCursors(c []int64) bool {
	if len(c) != 1 {
		return false
	}
	r.last.Store(c[0])
	return true
}

// rr2Selector implements the two-tier round-robin policy (RR2): the
// domains are partitioned into a normal and a hot class, and each
// class round-robins independently so that consecutive requests from
// hot domains are not funnelled to the same server.
type rr2Selector struct {
	last [2]atomic.Int64 // indexed by class - ClassNormal
}

// NewRR2 returns the two-tier round-robin selector.
func NewRR2() Selector {
	r := &rr2Selector{}
	r.last[0].Store(-1)
	r.last[1].Store(-1)
	return r
}

func (r *rr2Selector) Name() string { return "RR2" }

func (r *rr2Selector) Select(sn *Snapshot, domain int) int {
	p := &r.last[sn.Class(domain)-ClassNormal]
	n := sn.Cluster().N()
	last := int(p.Load())
	for k := 1; k <= n; k++ {
		i := (last + k) % n
		if sn.available(i) {
			p.Store(int64(i))
			return i
		}
	}
	return -1
}

func (r *rr2Selector) cursors() []int64 {
	return []int64{r.last[0].Load(), r.last[1].Load()}
}

func (r *rr2Selector) restoreCursors(c []int64) bool {
	if len(c) != 2 {
		return false
	}
	r.last[0].Store(c[0])
	r.last[1].Store(c[1])
	return true
}

// prrSelector implements probabilistic round robin (PRR): starting
// from the successor of the last chosen server, candidate S_i is
// accepted with probability α_i (its relative capacity), otherwise the
// scan moves on. Because α_1 = 1, a full cycle always terminates.
type prrSelector struct {
	last atomic.Int64
	rng  Rand
}

// NewPRR returns the probabilistic round-robin selector, which extends
// RR to heterogeneous servers by capacity-proportional skipping. The
// generator is wrapped with LockRand for concurrent callers.
func NewPRR(rng Rand) Selector {
	p := &prrSelector{rng: LockRand(rng)}
	p.last.Store(-1)
	return p
}

func (p *prrSelector) Name() string { return "PRR" }

func (p *prrSelector) Select(sn *Snapshot, _ int) int {
	i := probScan(sn, int(p.last.Load()), p.rng)
	if i >= 0 {
		p.last.Store(int64(i))
	}
	return i
}

func (p *prrSelector) cursors() []int64 { return []int64{p.last.Load()} }

func (p *prrSelector) restoreCursors(c []int64) bool {
	if len(c) != 1 {
		return false
	}
	p.last.Store(c[0])
	return true
}

// prr2Selector is PRR with the RR2 two-tier class structure: one
// probabilistic round-robin pointer per domain class.
type prr2Selector struct {
	last [2]atomic.Int64 // indexed by class - ClassNormal
	rng  Rand
}

// NewPRR2 returns the two-tier probabilistic round-robin selector. The
// generator is wrapped with LockRand for concurrent callers.
func NewPRR2(rng Rand) Selector {
	p := &prr2Selector{rng: LockRand(rng)}
	p.last[0].Store(-1)
	p.last[1].Store(-1)
	return p
}

func (p *prr2Selector) Name() string { return "PRR2" }

func (p *prr2Selector) Select(sn *Snapshot, domain int) int {
	ptr := &p.last[sn.Class(domain)-ClassNormal]
	i := probScan(sn, int(ptr.Load()), p.rng)
	if i >= 0 {
		ptr.Store(int64(i))
	}
	return i
}

func (p *prr2Selector) cursors() []int64 {
	return []int64{p.last[0].Load(), p.last[1].Load()}
}

func (p *prr2Selector) restoreCursors(c []int64) bool {
	if len(c) != 2 {
		return false
	}
	p.last[0].Store(c[0])
	p.last[1].Store(c[1])
	return true
}

// probScan performs the paper's probabilistic scan: starting after
// `last`, accept server i with probability α_i; skip alarmed and down
// servers outright. The scan is bounded: after two full unavailing
// cycles it falls back to the next available server deterministically
// (this can only happen through extreme rounding of α, not in
// practice). When every server is down it returns -1.
func probScan(sn *Snapshot, last int, rng Rand) int {
	n := sn.Cluster().N()
	for k := 1; k <= 2*n; k++ {
		i := (last + k) % n
		if !sn.available(i) {
			continue
		}
		if rng.Float64() <= sn.Alpha(i) {
			return i
		}
	}
	for k := 1; k <= n; k++ {
		i := (last + k) % n
		if sn.available(i) {
			return i
		}
	}
	return -1
}

// dalEntry is one outstanding address mapping tracked by the DAL
// selector: the hidden load it pins to a server and when it expires.
type dalEntry struct {
	expire float64
	server int
	load   float64
}

// dalHeap is a min-heap of mappings by expiry. push and pop move
// entries exactly as container/heap does — pop order among equal
// expiries decides every DAL/MRL float — without boxing one per call.
type dalHeap []dalEntry

func (h *dalHeap) push(e dalEntry) {
	s := append(*h, e)
	*h = s
	for j := len(s) - 1; j > 0 && s[j].expire < s[(j-1)/2].expire; j = (j - 1) / 2 {
		s[j], s[(j-1)/2] = s[(j-1)/2], s[j]
	}
}

func (h *dalHeap) pop() dalEntry {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j+1 < n && s[j+1].expire < s[j].expire {
			j++
		}
		if j >= n || !(s[j].expire < s[i].expire) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

// dalSelector implements the minimum Dynamically Accumulated Load
// baseline in the capacity-aware version used by the paper's Figure 3:
// every mapping accumulates the domain's hidden load weight on the
// chosen server for the duration of the TTL, and each request goes to
// the server with the smallest accumulated load per unit of capacity.
// The accumulated-load ledger is guarded by a selector-local mutex:
// unlike the rotation selectors it cannot decide without a consistent
// read-modify-write of all per-server loads.
type dalSelector struct {
	now func() float64
	ttl float64

	mu      sync.Mutex
	load    []float64
	pending dalHeap
}

// NewDAL returns the DAL selector. now supplies the current (virtual
// or wall) time; ttl is the constant TTL the policy hands out, which
// also bounds how long each accumulated load entry persists.
func NewDAL(now func() float64, ttl float64) Selector {
	return &dalSelector{now: now, ttl: ttl}
}

func (d *dalSelector) Name() string { return "DAL" }

func (d *dalSelector) Select(sn *Snapshot, domain int) int {
	n := sn.Cluster().N()
	t := d.now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.load) != n {
		d.load = make([]float64, n)
	}
	for len(d.pending) > 0 && d.pending[0].expire <= t {
		e := d.pending.pop()
		d.load[e.server] -= e.load
		if d.load[e.server] < 0 {
			d.load[e.server] = 0
		}
	}
	best, bestScore := -1, 0.0
	for i := 0; i < n; i++ {
		if !sn.available(i) {
			continue
		}
		score := d.load[i] / sn.Alpha(i)
		if best == -1 || score < bestScore {
			best, bestScore = i, score
		}
	}
	if best == -1 {
		return -1
	}
	w := sn.Weight(domain)
	d.load[best] += w
	d.pending.push(dalEntry{expire: t + d.ttl, server: best, load: w})
	return best
}
