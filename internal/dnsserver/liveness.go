package dnsserver

import (
	"strconv"
	"sync"

	"dnslb/internal/metrics"
)

// livenessMonitor implements failure detection for the live feedback
// path (Config.LivenessK, Config.LivenessInterval): every report line
// that names a backend (ALIVE, ALARM, JOIN) counts as proof of life, and
// a backend that stays silent for k consecutive report intervals is
// marked down in the scheduler — it receives no new mappings until it
// reports again. Recovery is immediate: the next line from a down backend
// re-admits it. The monitor's down standing is its detectorPassive vote
// in the server's downVotes (detect.go), and nothing else.
//
// New builds the monitor empty and grows it over the slots, which opens
// every backend's grace period of k intervals to deliver its first
// report; Start runs check once an interval until the server stops.
// Touch on a nil monitor (liveness off) does nothing.
type livenessMonitor struct {
	srv *Server
	// window is k intervals, in seconds: a backend silent for longer is
	// down.
	window float64

	// lastSeen is each backend's last proof of life, in engine-clock
	// seconds.
	mu       sync.Mutex
	lastSeen []float64

	// exclusions holds the per-server exclusion counters when
	// instrumented; read under mu, grown by Grow.
	exclusions []*metrics.Counter
}

// Touch records proof of life for a backend; a down backend recovers
// on the spot. Out-of-range indexes are ignored (the protocol layer
// validates and reports them before they reach the monitor).
func (m *livenessMonitor) Touch(server int) {
	if m == nil {
		return // liveness not configured
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if server < 0 || server >= len(m.lastSeen) {
		return
	}
	m.lastSeen[server] = m.srv.clock.Now()
	// Withdraw the passive down vote, if cast; the scheduler re-admits the
	// backend only when the active prober (if any) agrees it is up.
	_ = m.srv.voteDown(detectorPassive, server, false)
}

// Grow extends the monitor to cover n backends, giving each new slot a
// full grace period of k intervals — a freshly joined server is not
// marked down before it had a chance to report. Slot indices are stable,
// so n at or below the current size is a no-op.
//
// Its callers are serialized (New, then joins under reconfigMu), and it
// registers the new slots' series outside mu: the registry calls the
// gauge read functions (which take mu) under its own lock at scrape
// time, so registering under mu would invert that order.
func (m *livenessMonitor) Grow(n int) {
	var counters []*metrics.Counter
	for i := len(m.lastSeen); i < n && m.srv.registry != nil; i++ {
		reg, lbl := m.srv.registry, metrics.Labels{"server", strconv.Itoa(i)}
		counters = append(counters, reg.NewCounter("dnslb_liveness_exclusions_total",
			"Backends marked down after k missed report intervals.", lbl))
		reg.NewGaugeFunc("dnslb_liveness_report_age_seconds",
			"Seconds since the backend last proved it was alive (heartbeat gap).", lbl,
			func() float64 {
				m.mu.Lock()
				defer m.mu.Unlock()
				if i >= len(m.lastSeen) {
					return 0
				}
				return m.srv.clock.Now() - m.lastSeen[i]
			})
	}
	now := m.srv.clock.Now()
	m.mu.Lock()
	for len(m.lastSeen) < n {
		m.lastSeen = append(m.lastSeen, now)
	}
	m.exclusions = append(m.exclusions, counters...)
	m.mu.Unlock()
}

// check marks every backend silent for more than k intervals of the
// engine clock as down. It votes under mu, as Touch withdraws, so a
// report that lands while a backend is being excluded cannot be
// overtaken by the exclusion.
func (m *livenessMonitor) check() {
	now := m.srv.clock.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, seen := range m.lastSeen {
		if now-seen <= m.window || m.srv.votes.holds(detectorPassive, i) {
			continue
		}
		if i < len(m.exclusions) {
			m.exclusions[i].Inc()
		}
		_ = m.srv.voteDown(detectorPassive, i, true)
	}
}
