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
// when the aggregate query rate rises above a configured ceiling and
// the server as a whole can no longer afford the full decision
// lifecycle.
//
// In degraded mode the zone's A queries are answered by the engine's
// static capacity-weighted round-robin ladder (engine.DecideFallback)
// with a short TTL, bypassing the policy and the estimator feed. No
// query is dropped and nothing is answered SERVFAIL
// merely because the server is overloaded — a deliberately "dumber but
// always on" posture, with short TTLs pulling clients back to the
// adaptive policy quickly after recovery.
//
// The rate is sampled once an overloadTick, over the interval measured
// since the previous sample. Mode transitions carry hysteresis in both
// directions (overloadEnterTicks consecutive over-ceiling samples to
// enter, overloadExitTicks consecutive samples below
// overloadExitRatio×ceiling to leave) so a load level hovering at the
// ceiling cannot flap the mode per sample.
const (
	overloadTick       = time.Second
	overloadExitRatio  = 0.8
	overloadEnterTicks = 2
	overloadExitTicks  = 5
)

// OverloadConfig configures the degradation controller. The zero value
// disables it entirely.
type OverloadConfig struct {
	// QPSCeiling is the aggregate queries/second above which the server
	// degrades. Zero disables the controller.
	QPSCeiling float64
	// DegradedTTL is the TTL (seconds) handed out with degraded-mode
	// answers. Zero defaults to 5.
	DegradedTTL float64
}

// Enabled reports whether the controller is configured.
func (c OverloadConfig) Enabled() bool { return c.QPSCeiling > 0 }

func (c OverloadConfig) validate() error {
	if !(c.QPSCeiling >= 0 && c.QPSCeiling <= math.MaxFloat64) {
		return fmt.Errorf("dnsserver: overload ceiling %v must be >= 0 and finite", c.QPSCeiling)
	}
	if !(c.DegradedTTL >= 0 && c.DegradedTTL <= math.MaxFloat64) {
		return fmt.Errorf("dnsserver: degraded TTL %v must be >= 0 and finite", c.DegradedTTL)
	}
	return nil
}

// overloadController drives the degraded-mode flag: Start has sample
// take the aggregate query rate once an overloadTick.
type overloadController struct {
	srv *Server
	cfg OverloadConfig

	degraded    atomic.Bool
	transitions atomic.Uint64
	lastRate    atomic.Uint64 // float64 bits of the last sampled qps

	// hysteresis counters and the previous sample, owned by the sampling
	// goroutine
	overStreak  int
	clearStreak int
	lastQueries uint64
	lastSample  time.Time
}

func newOverloadController(s *Server, cfg OverloadConfig) *overloadController {
	if cfg.DegradedTTL == 0 {
		cfg.DegradedTTL = 5
	}
	return &overloadController{srv: s, cfg: cfg, lastQueries: s.statsTotal(cQueries), lastSample: time.Now()}
}

// active is the query path's gate: one atomic load.
func (c *overloadController) active() bool { return c.degraded.Load() }

// sample takes one rate measurement at now and applies the hysteresis
// rules. The rate is over the time since the previous sample, not over
// overloadTick: a ticker drops ticks for a slow receiver, which is the
// overloaded case, and a late sample then spans more than one tick.
func (c *overloadController) sample(now time.Time) {
	queries := c.srv.statsTotal(cQueries)
	rate := float64(queries-c.lastQueries) / now.Sub(c.lastSample).Seconds()
	c.lastQueries, c.lastSample = queries, now
	c.lastRate.Store(math.Float64bits(rate))

	if c.degraded.Load() {
		// Exit requires the rate to hold below the exit threshold for
		// overloadExitTicks consecutive samples.
		if rate < overloadExitRatio*c.cfg.QPSCeiling {
			c.clearStreak++
			if c.clearStreak >= overloadExitTicks {
				c.setDegraded(false, rate)
			}
		} else {
			c.clearStreak = 0
		}
		return
	}
	if rate > c.cfg.QPSCeiling {
		c.overStreak++
		if c.overStreak >= overloadEnterTicks {
			c.setDegraded(true, rate)
		}
	} else {
		c.overStreak = 0
	}
}

func (c *overloadController) setDegraded(on bool, rate float64) {
	c.degraded.Store(on)
	c.transitions.Add(1)
	c.overStreak = 0
	c.clearStreak = 0
	if on {
		c.srv.logger.Warn("entering degraded mode",
			"rate_qps", rate, "ceiling_qps", c.cfg.QPSCeiling, "degraded_ttl", c.cfg.DegradedTTL)
	} else {
		c.srv.logger.Info("leaving degraded mode", "rate_qps", rate)
	}
}

// rate returns the last sampled aggregate query rate in qps.
func (c *overloadController) rate() float64 { return math.Float64frombits(c.lastRate.Load()) }

// --- Server surface -------------------------------------------------------

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
		Answers:     s.statsTotal(cDegraded),
		Transitions: s.over.transitions.Load(),
		Degraded:    s.over.active(),
		LastRateQPS: s.over.rate(),
	}
}
