package dnsserver

import (
	"strconv"
	"sync"
	"time"

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
type livenessMonitor struct {
	srv      *Server
	interval time.Duration
	k        int

	mu       sync.Mutex
	lastSeen []time.Time

	// exclusions holds the per-server exclusion counters (nil elements
	// when uninstrumented); read under mu, grown by Grow.
	exclusions []*metrics.Counter

	// growMu serializes Grow calls so metric registration (which must
	// happen outside mu — the gauge read functions take mu under the
	// registry's lock at scrape time) is never attempted twice for the
	// same slot.
	growMu sync.Mutex
}

// Touch records proof of life for a backend; a down backend recovers
// on the spot. Out-of-range indexes are ignored (the protocol layer
// validates and reports them before they reach the monitor).
func (m *livenessMonitor) Touch(server int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if server < 0 || server >= len(m.lastSeen) {
		return
	}
	m.lastSeen[server] = time.Now()
	// Withdraw the passive down vote, if cast; the scheduler re-admits the
	// backend only when the active prober (if any) agrees it is up.
	_ = m.srv.voteDown(detectorPassive, server, false)
}

// Grow extends the monitor to cover n backends, giving each new slot a
// full grace period of k intervals — a freshly joined server is not
// marked down before it had a chance to report. Shrinking is not
// supported (slot indices are stable); n at or below the current size
// is a no-op.
//
// Metric series for the new slots are registered outside the state
// lock: the registry calls the gauge read functions (which take m.mu)
// under its own lock at scrape time, so registering under m.mu would
// invert that order.
func (m *livenessMonitor) Grow(n int) {
	m.growMu.Lock()
	defer m.growMu.Unlock()
	m.mu.Lock()
	start := len(m.lastSeen)
	m.mu.Unlock()
	if n <= start {
		return
	}
	var counters []*metrics.Counter
	if reg := m.srv.registry; reg != nil {
		counters = make([]*metrics.Counter, 0, n-start)
		for i := start; i < n; i++ {
			i := i
			lbl := metrics.Labels{"server", strconv.Itoa(i)}
			counters = append(counters, reg.NewCounter("dnslb_liveness_exclusions_total",
				"Backends marked down after k missed report intervals.", lbl))
			reg.NewGaugeFunc("dnslb_liveness_report_age_seconds",
				"Seconds since the backend last proved it was alive (heartbeat gap).", lbl,
				func() float64 {
					m.mu.Lock()
					var last time.Time
					if i < len(m.lastSeen) {
						last = m.lastSeen[i]
					}
					m.mu.Unlock()
					if last.IsZero() {
						return 0
					}
					return time.Since(last).Seconds()
				})
		}
	}
	now := time.Now()
	m.mu.Lock()
	for i := start; i < n; i++ {
		m.lastSeen = append(m.lastSeen, now)
	}
	if counters != nil {
		// Instrumented: keep exclusions index-aligned with lastSeen.
		m.exclusions = append(m.exclusions, counters...)
	}
	m.mu.Unlock()
}

// check marks every backend silent for more than k intervals as down.
// It votes under mu, as Touch withdraws, so a report that lands while a
// backend is being excluded cannot be overtaken by the exclusion.
func (m *livenessMonitor) check(now time.Time) {
	deadline := time.Duration(m.k) * m.interval
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, seen := range m.lastSeen {
		if now.Sub(seen) <= deadline || m.srv.votes.holds(detectorPassive, i) {
			continue
		}
		if i < len(m.exclusions) && m.exclusions[i] != nil {
			m.exclusions[i].Inc()
		}
		_ = m.srv.voteDown(detectorPassive, i, true)
	}
}
