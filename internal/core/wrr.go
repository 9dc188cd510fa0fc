package core

import "sync"

// smoothWRR implements smooth weighted round robin (extension — the
// deterministic capacity-proportional rotation used by modern load
// balancers such as nginx and weighted DNS services). It is the
// natural present-day baseline next to the paper's probabilistic PRR:
// both assign servers in proportion to capacity; WRR does so without
// randomness and with the smoothest possible interleaving.
//
// Algorithm (Nginx's smooth WRR): each pick adds every available
// server's weight to its running current value, selects the largest
// current, then subtracts the total weight from the winner. Over any
// window the selection counts match the weights, and the winner
// sequence avoids bursts on the heavy server. The running values need
// a consistent read-modify-write across all servers, so the selector
// takes a local mutex (held for one O(N) pass).
type smoothWRR struct {
	mu      sync.Mutex
	current []float64
}

// NewWRR returns the smooth weighted round-robin selector; weights are
// the cluster's relative capacities.
func NewWRR() Selector { return &smoothWRR{} }

func (w *smoothWRR) Select(sn *Snapshot, _ int) int {
	n := sn.Cluster().N()
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.current) != n {
		w.current = make([]float64, n)
	}
	best := -1
	var total float64
	for i := 0; i < n; i++ {
		if !sn.available(i) {
			continue
		}
		weight := sn.Alpha(i)
		w.current[i] += weight
		total += weight
		if best == -1 || w.current[i] > w.current[best] {
			best = i
		}
	}
	if best == -1 {
		return -1
	}
	w.current[best] -= total
	return best
}
