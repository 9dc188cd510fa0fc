package core

import (
	"sync"
	"sync/atomic"
)

// Selector chooses the Web server for an address request against one
// immutable state snapshot. Select returns the index of the chosen
// server for a request from the given domain, or -1 when no server is
// available (every server is marked down).
//
// Selectors are stateful (rotation cursors, accumulated loads) but safe
// for concurrent use: the rotation cursors are atomics and the
// accounting selectors (WRR, DAL, MRL) take a small internal lock.
// Under concurrent callers the round-robin rotation is approximate —
// two simultaneous requests may pick the same server — while
// single-threaded call sequences reproduce the paper's behavior
// exactly, which keeps the simulator deterministic.
type Selector interface {
	Select(sn *Snapshot, domain int) int
}

// rotation is the paper's round-robin family — RR, RR2, PRR and PRR2 —
// as one scan with two switches. Starting after the class's cursor it
// skips unavailable servers (alarmed ones unless every eligible server
// is alarmed, and always down, draining and retired ones):
//
//   - twoTier gives each domain class, hot and normal, its own cursor
//     (the "2" variants), so consecutive requests from hot domains are
//     not funnelled to the same server;
//   - a non-nil rng makes the scan probabilistic (PRR): an available
//     candidate i is accepted with probability α_i, its relative
//     capacity, over at most two cycles. Because α_1 = 1 a cycle almost
//     always accepts; only extreme rounding of α reaches the
//     deterministic pass that follows.
//
// The deterministic pass — the whole of RR — takes the next available
// server. The cursors are lock-free atomics.
type rotation struct {
	last    [2]atomic.Int64 // indexed by class - ClassNormal; [0] alone unless twoTier
	twoTier bool
	rng     Rand
}

func newRotation(twoTier bool, rng Rand) *rotation {
	r := &rotation{twoTier: twoTier, rng: rng}
	r.last[0].Store(-1)
	r.last[1].Store(-1)
	return r
}

func (r *rotation) Select(sn *Snapshot, domain int) int {
	cursor := &r.last[0]
	if r.twoTier {
		cursor = &r.last[sn.Class(domain)-ClassNormal]
	}
	n := sn.Cluster().N()
	last := int(cursor.Load())
	if r.rng != nil {
		for k := 1; k <= 2*n; k++ {
			if i := (last + k) % n; sn.available(i) && r.rng.Float64() <= sn.Alpha(i) {
				cursor.Store(int64(i))
				return i
			}
		}
	}
	for k := 1; k <= n; k++ {
		if i := (last + k) % n; sn.available(i) {
			cursor.Store(int64(i))
			return i
		}
	}
	return -1
}

// cursors returns the rotation position: one cursor, or [normal, hot]
// for the two-tier variants.
func (r *rotation) cursors() []int64 {
	if r.twoTier {
		return []int64{r.last[0].Load(), r.last[1].Load()}
	}
	return []int64{r.last[0].Load()}
}

// restoreCursors reinstates a vector captured by cursors. It refuses a
// vector of the wrong length, or one holding a cursor outside [-1, n)
// for n server slots, which would index outside the cluster.
func (r *rotation) restoreCursors(c []int64, n int) bool {
	if len(c) != len(r.cursors()) {
		return false
	}
	for _, v := range c {
		if v < -1 || v >= int64(n) {
			return false
		}
	}
	for k, v := range c {
		r.last[k].Store(v)
	}
	return true
}

// leastLoaded returns the available server with the smallest load per
// unit of relative capacity, the lowest index on a tie, or -1 when no
// server is available. It is the choice rule of DAL and MRL, which
// differ only in how they account the load.
func leastLoaded(sn *Snapshot, load []float64) int {
	best, bestScore := -1, 0.0
	for i, l := range load {
		if !sn.available(i) {
			continue
		}
		if score := l / sn.Alpha(i); best == -1 || score < bestScore {
			best, bestScore = i, score
		}
	}
	return best
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

func (d *dalSelector) Select(sn *Snapshot, domain int) int {
	n := sn.Cluster().N()
	t := d.now()
	d.mu.Lock()
	defer d.mu.Unlock()
	// Slots are never renumbered, so a joined server extends the ledger
	// and every pending entry keeps its server's load.
	if grow := n - len(d.load); grow > 0 {
		d.load = append(d.load, make([]float64, grow)...)
	}
	for len(d.pending) > 0 && d.pending[0].expire <= t {
		e := d.pending.pop()
		d.load[e.server] -= e.load
		if d.load[e.server] < 0 {
			d.load[e.server] = 0
		}
	}
	best := leastLoaded(sn, d.load[:n])
	if best == -1 {
		return -1
	}
	w := sn.Weight(domain)
	d.load[best] += w
	d.pending.push(dalEntry{expire: t + d.ttl, server: best, load: w})
	return best
}
