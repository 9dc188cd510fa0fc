package dnsserver

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Overload graceful degradation: a global admission layer distinct
// from the per-source rate limiter. The per-source limiter protects
// the server from one abusive resolver; this layer decides what to do
// when the server as a whole can no longer afford — or no longer
// trust — the full decision lifecycle:
//
//   - aggregate query rate above a configured ceiling, or
//   - soft state gone stale: replication degraded (no connected peers)
//     while the hidden-load estimator has not rolled for StaleRolls
//     intervals.
//
// In degraded mode the zone's A queries are answered by the engine's
// static capacity-weighted round-robin ladder (engine.DecideFallback)
// with a short TTL, bypassing the policy and the estimator feed. No
// query is dropped and nothing is answered SERVFAIL
// merely because the server is overloaded — a deliberately "dumber but
// always on" posture, with short TTLs pulling clients back to the
// adaptive policy quickly after recovery.
//
// Mode transitions carry hysteresis in both directions (EnterTicks
// consecutive over-ceiling samples to enter, ExitTicks consecutive
// samples below ExitRatio×ceiling to leave) so a load level hovering
// at the ceiling cannot flap the mode per sample.

// OverloadConfig configures the degradation controller. The zero value
// disables it entirely.
type OverloadConfig struct {
	// QPSCeiling is the aggregate queries/second above which the server
	// degrades. Zero disables the rate trigger.
	QPSCeiling float64
	// ExitRatio is the fraction of QPSCeiling the rate must fall below
	// to arm mode exit, in (0,1]. Zero defaults to 0.8.
	ExitRatio float64
	// EnterTicks and ExitTicks are the consecutive sample counts
	// required to enter and leave degraded mode. Zero defaults to 2
	// and 5 respectively.
	EnterTicks int
	ExitTicks  int
	// Tick is the sampling period. Zero defaults to 1s.
	Tick time.Duration
	// DegradedTTL is the TTL (seconds) handed out with degraded-mode
	// answers. Zero defaults to 5.
	DegradedTTL float64
	// StaleRolls arms the staleness trigger: the server degrades when
	// replication is degraded AND the estimator has not rolled for
	// StaleRolls times its last roll interval. Zero disables the
	// staleness trigger. A server that never rolled is cold, not stale.
	StaleRolls int
}

// Enabled reports whether any trigger is configured.
func (c OverloadConfig) Enabled() bool { return c.QPSCeiling > 0 || c.StaleRolls > 0 }

func (c OverloadConfig) withDefaults() OverloadConfig {
	if c.ExitRatio <= 0 || c.ExitRatio > 1 {
		c.ExitRatio = 0.8
	}
	if c.EnterTicks <= 0 {
		c.EnterTicks = 2
	}
	if c.ExitTicks <= 0 {
		c.ExitTicks = 5
	}
	if c.Tick <= 0 {
		c.Tick = time.Second
	}
	if c.DegradedTTL <= 0 {
		c.DegradedTTL = 5
	}
	return c
}

func (c OverloadConfig) validate() error {
	if c.QPSCeiling < 0 {
		return fmt.Errorf("dnsserver: overload ceiling %v must be >= 0", c.QPSCeiling)
	}
	if c.StaleRolls < 0 {
		return fmt.Errorf("dnsserver: overload stale rolls %d must be >= 0", c.StaleRolls)
	}
	if c.DegradedTTL < 0 {
		return fmt.Errorf("dnsserver: degraded TTL %v must be >= 0", c.DegradedTTL)
	}
	return nil
}

// overloadController drives the degraded-mode flag: Start has sample
// take the aggregate query rate and the soft state's health once a Tick.
type overloadController struct {
	srv *Server
	cfg OverloadConfig

	degraded    atomic.Bool
	transitions atomic.Uint64
	lastRate    atomic.Uint64 // float64 bits of the last sampled qps
	shed        [statsShards]paddedCounter

	// hysteresis counters, owned by the sampling goroutine
	overStreak  int
	clearStreak int
	lastQueries uint64
}

// paddedCounter is an atomic counter on its own cache line, so the
// degraded hot path (which is by definition under heavy load) shards
// its answer count like the serve counters do.
type paddedCounter struct {
	n atomic.Uint64
	_ [56]byte
}

func newOverloadController(s *Server, cfg OverloadConfig) *overloadController {
	return &overloadController{srv: s, cfg: cfg.withDefaults(), lastQueries: s.Stats().Queries}
}

// active is the query path's gate: one atomic load.
func (c *overloadController) active() bool { return c.degraded.Load() }

// noteDegradedAnswer counts one answer served by the degraded ladder.
func (c *overloadController) noteDegradedAnswer(shard uint32) {
	c.shed[shard&(statsShards-1)].n.Add(1)
}

// DegradedAnswers sums the degraded-mode answer counter.
func (c *overloadController) degradedAnswers() uint64 {
	var t uint64
	for i := range c.shed {
		t += c.shed[i].n.Load()
	}
	return t
}

// sample takes one rate measurement, evaluates the triggers, and
// applies the hysteresis rules.
func (c *overloadController) sample() {
	queries := c.srv.Stats().Queries
	rate := float64(queries-c.lastQueries) / c.cfg.Tick.Seconds()
	c.lastQueries = queries
	c.lastRate.Store(floatBits(rate))

	overRate := c.cfg.QPSCeiling > 0 && rate > c.cfg.QPSCeiling
	stale := c.stale()

	if c.degraded.Load() {
		// Exit requires every trigger clear, with the rate holding below
		// the exit threshold for ExitTicks consecutive samples.
		calm := !stale && (c.cfg.QPSCeiling == 0 || rate < c.cfg.ExitRatio*c.cfg.QPSCeiling)
		if calm {
			c.clearStreak++
			if c.clearStreak >= c.cfg.ExitTicks {
				c.setDegraded(false, rate, stale)
			}
		} else {
			c.clearStreak = 0
		}
		return
	}
	// Staleness is slow-moving by construction (it took StaleRolls
	// intervals to arise), so it enters immediately; the rate trigger
	// needs EnterTicks consecutive over-ceiling samples.
	if stale {
		c.setDegraded(true, rate, stale)
		return
	}
	if overRate {
		c.overStreak++
		if c.overStreak >= c.cfg.EnterTicks {
			c.setDegraded(true, rate, stale)
		}
	} else {
		c.overStreak = 0
	}
}

func (c *overloadController) setDegraded(on bool, rate float64, stale bool) {
	c.degraded.Store(on)
	c.transitions.Add(1)
	c.overStreak = 0
	c.clearStreak = 0
	if on {
		c.srv.logger.Warn("entering degraded mode",
			"rate_qps", rate, "ceiling_qps", c.cfg.QPSCeiling, "stale", stale,
			"degraded_ttl", c.cfg.DegradedTTL)
	} else {
		c.srv.logger.Info("leaving degraded mode", "rate_qps", rate)
	}
}

// stale reports the soft-state staleness trigger: replication degraded
// while the estimator's last roll is older than StaleRolls of its own
// intervals.
func (c *overloadController) stale() bool {
	if c.cfg.StaleRolls == 0 {
		return false
	}
	if repl := c.srv.replicator; repl == nil || !repl.Degraded() {
		return false
	}
	lastRoll := c.srv.lastRoll.Load()
	interval := floatFromBits(c.srv.lastRollInterval.Load())
	if lastRoll == 0 || interval <= 0 {
		return false // never rolled: cold, not stale
	}
	age := time.Since(time.Unix(0, lastRoll)).Seconds()
	return age > float64(c.cfg.StaleRolls)*interval
}

// Rate returns the last sampled aggregate query rate in qps.
func (c *overloadController) rate() float64 { return floatFromBits(c.lastRate.Load()) }

// --- Server surface -------------------------------------------------------

// DegradedMode reports whether the overload controller currently has
// the server in degraded mode (always false when not configured).
func (s *Server) DegradedMode() bool { return s.over != nil && s.over.active() }

// DegradedStats reports the degradation controller's counters: answers
// served by the static ladder and mode transitions (enter and leave
// each count once). All zero when the controller is not configured.
type DegradedStats struct {
	Answers     uint64
	Transitions uint64
	Degraded    bool
	LastRateQPS float64
}

// Degraded returns a snapshot of the degradation controller's state.
func (s *Server) Degraded() DegradedStats {
	if s.over == nil {
		return DegradedStats{}
	}
	return DegradedStats{
		Answers:     s.over.degradedAnswers(),
		Transitions: s.over.transitions.Load(),
		Degraded:    s.over.active(),
		LastRateQPS: s.over.rate(),
	}
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
