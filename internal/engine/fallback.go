package engine

import (
	"sync"

	"dnslb/internal/core"
)

// Degraded decision ladder. When the live server's soft state cannot
// be trusted — query load above the admission ceiling, or replication
// degraded while the estimator has gone stale — the right answer is
// not SERVFAIL: any live backend is better than none, and the paper's
// own baseline (capacity-proportional assignment with no feedback) is
// a perfectly serviceable static policy. DecideFallback implements
// that ladder rung: smooth capacity-weighted round robin over the
// currently schedulable slots, with a caller-chosen short TTL so
// clients re-resolve quickly once the feedback loop is healthy again.
//
// The fallback deliberately ignores alarm flags — alarms are derived
// from the very soft state degraded mode distrusts — but still honors
// membership, liveness, and draining, which are hard operational
// facts. Fallback decisions extend the outstanding-mapping ledger and
// reach the decision tap like any other handout (replication peers
// must account for them); they bypass the policy, its TTL schedule,
// and the estimator's decision feed.

// fallbackState is the smooth-WRR accumulator for DecideFallback,
// lazily sized: core's WRR algorithm (add each eligible weight, pick the
// largest, subtract the total from it), kept a copy because it ignores
// alarms, which a shared loop would have to branch on.
type fallbackState struct {
	mu      sync.Mutex
	current []float64
}

// DecideFallback answers one request through the static
// capacity-weighted round-robin ladder with the given TTL in seconds.
// It returns core.ErrNoServers when no slot is schedulable (not a
// member, down, or draining).
func (e *Engine) DecideFallback(ttl float64) (core.Decision, error) {
	sn := e.policy.State().Snapshot()
	n := sn.Cluster().N()
	fb := &e.fallback
	fb.mu.Lock()
	if len(fb.current) != n {
		fb.current = make([]float64, n)
	}
	best := -1
	var total float64
	for i := 0; i < n; i++ {
		if !sn.Member(i) || sn.Down(i) || sn.Draining(i) {
			continue
		}
		w := sn.Alpha(i)
		fb.current[i] += w
		total += w
		if best == -1 || fb.current[i] > fb.current[best] {
			best = i
		}
	}
	if best == -1 {
		fb.mu.Unlock()
		return core.Decision{}, core.ErrNoServers
	}
	fb.current[best] -= total
	fb.mu.Unlock()

	d := core.Decision{Server: best, TTL: ttl}
	e.ledger.Extend(best, e.clock.Now()+ttl)
	if e.onDecision != nil {
		e.onDecision(-1, d)
	}
	return d, nil
}
