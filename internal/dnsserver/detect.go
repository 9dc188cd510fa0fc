package dnsserver

import (
	"strconv"
	"sync"

	"dnslb/internal/metrics"
	"dnslb/internal/probe"
)

// Failure-detector combination. The server can run two independent
// detectors per backend:
//
//   - the passive k-missed-reports livenessMonitor (liveness.go), which
//     infers death from silence on the report path, and
//   - the active Prober (internal/probe), which dials the backend's
//     service port on a jittered interval.
//
// Each detector casts a per-backend down vote. The combination rule is
// deliberately asymmetric:
//
//	down  = any detector votes down   (fail fast: either signal alone
//	        is enough to stop handing out new mappings)
//	up    = no detector votes down    (fail safe: a backend whose
//	        service port answers but whose report path is dead — or
//	        vice versa — stays excluded until both detectors agree)
//
// With a single detector attached this degenerates to exactly that
// detector's standing, so servers without probes behave as before.
// The public SetDown remains a direct administrative override outside
// the vote ledger.
const (
	detectorPassive uint8 = 1 << iota // livenessMonitor (k missed reports)
	detectorActive                    // active Prober
)

// downVotes is the per-slot vote bitmask ledger. The engine's down
// flag transitions only when the mask moves between zero and non-zero.
type downVotes struct {
	mu   sync.Mutex
	bits []uint8
}

// vote records one detector's standing for a server and reports
// whether the combined standing flipped, plus the new standing. The
// slice grows on demand so joined slots need no explicit registration.
func (v *downVotes) vote(src uint8, server int, down bool) (flipped, isDown bool) {
	if server < 0 {
		return false, false
	}
	v.mu.Lock()
	for server >= len(v.bits) {
		v.bits = append(v.bits, 0)
	}
	old := v.bits[server]
	if down {
		v.bits[server] = old | src
	} else {
		v.bits[server] = old &^ src
	}
	now := v.bits[server]
	v.mu.Unlock()
	return (old != 0) != (now != 0), now != 0
}

// holds reports whether the given detector currently votes down for
// the server.
func (v *downVotes) holds(src uint8, server int) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return server >= 0 && server < len(v.bits) && v.bits[server]&src != 0
}

// voteDown casts a detector vote and applies the combined standing to
// the scheduler when it flips. This is the only path by which the
// detectors may change the engine's down flags.
func (s *Server) voteDown(src uint8, server int, down bool) error {
	flipped, isDown := s.votes.vote(src, server, down)
	if !flipped {
		return nil
	}
	return s.eng.SetDown(server, isDown)
}

// newProber builds the active prober of Config.Probe: target i's probe
// standing becomes the active detector's vote for server slot i. Start
// launches it and Shutdown closes it; probe votes are left in place then
// — a stopping server has no reason to re-admit backends.
func (s *Server) newProber(cfg probe.Config) error {
	if cfg.Logger == nil {
		cfg.Logger = s.logger
	}
	inner := cfg.OnTransition
	cfg.OnTransition = func(target int, down bool) {
		if err := s.voteDown(detectorActive, target, down); err != nil {
			s.logger.Warn("probe vote rejected", "target", target, "down", down, "err", err)
		}
		if inner != nil {
			inner(target, down)
		}
	}
	p, err := probe.New(cfg)
	if err != nil {
		return err
	}
	s.prober = p
	if s.registry != nil {
		registerProbeMetrics(s.registry, p)
	}
	return nil
}

// probeDown reports the active prober's standing for a server slot
// (false when probing is not configured or the slot is unprobed).
func (s *Server) probeDown(server int) bool {
	return s.prober != nil && s.prober.Down(server)
}

// registerProbeMetrics exposes the prober's counters. Totals are
// summed at scrape time from the per-target atomics; per-target
// standing is a 0/1 gauge labeled like the other per-server series.
func registerProbeMetrics(reg *metrics.Registry, p *probe.Prober) {
	sum := func(pick func(probe.TargetStats) uint64) func() uint64 {
		return func() uint64 {
			var t uint64
			for _, ts := range p.Stats() {
				t += pick(ts)
			}
			return t
		}
	}
	reg.NewCounterFunc("dnslb_probe_probes_total",
		"Active health probes attempted across all targets.",
		nil, sum(func(ts probe.TargetStats) uint64 { return ts.Probes }))
	reg.NewCounterFunc("dnslb_probe_failures_total",
		"Active health probes that failed (dial, timeout, or bad HTTP status).",
		nil, sum(func(ts probe.TargetStats) uint64 { return ts.Failures }))
	reg.NewCounterFunc("dnslb_probe_transitions_total",
		"Probe standing flips across all targets (down and up each count once).",
		nil, sum(func(ts probe.TargetStats) uint64 { return ts.Transitions }))
	reg.NewGaugeFunc("dnslb_probe_targets",
		"Configured probe targets (including skipped empty slots).",
		nil, func() float64 { return float64(p.NumTargets()) })
	for i := 0; i < p.NumTargets(); i++ {
		i := i
		reg.NewGaugeFunc("dnslb_probe_down",
			"1 while the active prober considers the target failed.",
			metrics.Labels{"server", strconv.Itoa(i)},
			func() float64 { return boolGauge(p.Down(i)) })
	}
}
