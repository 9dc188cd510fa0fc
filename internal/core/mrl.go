package core

import "sync"

// mrlSelector implements the Minimum Residual Load baseline from the
// companion homogeneous-server study (Colajanni, Yu, Dias, ICDCS'97),
// in a capacity-scaled form matching this paper's DAL treatment.
//
// Where DAL charges the full hidden load of a mapping until its TTL
// expires, MRL charges only the load *still to come*: a mapping's
// contribution decays linearly from the domain's hidden load weight to
// zero across the TTL interval, modelling that the burst of cached
// requests spreads over the TTL. Each address request goes to the
// server minimizing residual load per unit of relative capacity. Like
// DAL, the mapping ledger needs a consistent read-modify-write, so it
// is guarded by a selector-local mutex.
type mrlSelector struct {
	now func() float64
	ttl float64

	mu      sync.Mutex
	pending dalHeap // reuses the (expire, server, load) entry heap
	// residual is Select's per-server scratch, kept across calls and
	// grown when the cluster has.
	residual []float64
}

// NewMRL returns the minimum residual load selector. now supplies the
// current time; ttl is the constant TTL the policy hands out.
func NewMRL(now func() float64, ttl float64) Selector {
	return &mrlSelector{now: now, ttl: ttl}
}

func (m *mrlSelector) Select(sn *Snapshot, domain int) int {
	n := sn.Cluster().N()
	t := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.pending) > 0 && m.pending[0].expire <= t {
		m.pending.pop()
	}
	if len(m.residual) < n {
		m.residual = make([]float64, n)
	}
	residual := m.residual[:n]
	clear(residual)
	for _, e := range m.pending {
		// Linear decay: full weight at assignment, zero at expiry.
		residual[e.server] += e.load * (e.expire - t) / m.ttl
	}
	best := leastLoaded(sn, residual)
	if best == -1 {
		return -1
	}
	m.pending.push(dalEntry{expire: t + m.ttl, server: best, load: sn.Weight(domain)})
	return best
}
