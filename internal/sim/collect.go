package sim

import (
	"math"

	"dnslb/internal/engine"
	"dnslb/internal/simcore"
	"dnslb/internal/stats"
	"dnslb/internal/webserver"
)

// utilizationCollector samples server utilization, drives the alarm
// protocol, and accumulates the max-utilization metric. Servers
// recompute utilization (and evaluate the alarm condition) every
// UtilizationInterval; the reported metric averages the sub-windows
// spanned by each MetricWindow. Server i's alarm protocol runs against
// its authority replica (i mod R); the other replicas learn the
// standing only through gossip.
type utilizationCollector struct {
	cfg      Config
	sim      *simcore.Simulator
	replicas []*replica
	servers  []*webserver.Server
	res      *Result
	fail     func(error)
	horizon  float64

	maxUtil      *stats.WindowedMax
	utilSum      []float64
	subCount     int
	subPerMetric int
}

func newUtilizationCollector(cfg Config, sim *simcore.Simulator, replicas []*replica, servers []*webserver.Server, res *Result, fail func(error), horizon float64) *utilizationCollector {
	return &utilizationCollector{
		cfg:          cfg,
		sim:          sim,
		replicas:     replicas,
		servers:      servers,
		res:          res,
		fail:         fail,
		horizon:      horizon,
		maxUtil:      stats.NewWindowedMax(cfg.Servers),
		utilSum:      make([]float64, cfg.Servers),
		subPerMetric: int(math.Round(cfg.MetricWindow / cfg.UtilizationInterval)),
	}
}

func (u *utilizationCollector) install() {
	u.sim.Schedule(u.cfg.UtilizationInterval, u.sample)
}

func (u *utilizationCollector) sample() {
	now := u.sim.Now()
	measuring := now > u.cfg.Warmup
	for i, sv := range u.servers {
		util := sv.CloseWindow(now)
		rep := authority(u.replicas, i)
		sn := rep.state.Snapshot()
		if sn.Down(i) || !sn.Member(i) {
			// A dead or retired server serves nothing and signals
			// nothing; its residual backlog drain is not a utilization
			// observation (the metric window averages it as zero).
			continue
		}
		if u.cfg.AlarmThreshold > 0 {
			over := util > u.cfg.AlarmThreshold
			if over != sn.Alarmed(i) {
				if err := rep.eng.SetAlarm(i, over); err != nil {
					u.fail(err)
				}
				u.res.AlarmSignals++
			}
		}
		if measuring {
			u.utilSum[i] += util
		}
	}
	if measuring {
		u.subCount++
		if u.subCount == u.subPerMetric {
			for i := range u.utilSum {
				u.maxUtil.Observe(i, u.utilSum[i]/float64(u.subPerMetric))
				u.utilSum[i] = 0
			}
			u.subCount = 0
		}
	}
	if now < u.horizon {
		u.sim.Schedule(u.cfg.UtilizationInterval, u.sample)
	}
}

// estimatorCollector closes the dynamic hidden-load feedback loop:
// each EstimatorInterval it gathers every live member's per-domain hit
// report into its authority replica's estimator (server i reports to
// replica i mod R) and rolls every replica's re-estimated weights into
// its scheduler state. In a replicated set the other replicas receive
// the same hits one gossip round later as replicated increments, so
// the weight views drift apart by exactly the traffic still in flight
// between replicas. The report-loss fault model drops a server's whole
// interval report with probability ReportLossProb; dead servers report
// nothing.
type estimatorCollector struct {
	cfg      Config
	sim      *simcore.Simulator
	replicas []*replica
	servers  []*webserver.Server
	res      *Result
	fail     func(error)
	horizon  float64

	loss *simcore.Stream
}

func (c *estimatorCollector) install() {
	c.loss = c.sim.Stream("reportloss")
	c.sim.Schedule(c.cfg.EstimatorInterval, c.collect)
}

func (c *estimatorCollector) collect() {
	for i, sv := range c.servers {
		hits := sv.TakeDomainHits()
		rep := authority(c.replicas, i)
		if sn := rep.state.Snapshot(); sn.Down(i) || !sn.Member(i) {
			// Dead and retired servers report nothing (draining ones
			// still do — they are alive and serving).
			continue
		}
		if c.cfg.ReportLossProb > 0 && c.loss.Float64() < c.cfg.ReportLossProb {
			c.res.LostReports++
			continue
		}
		for j, h := range hits {
			rep.eng.RecordHits(j, h)
			if rep.node != nil && h > 0 {
				rep.node.AddHits(j, h)
			}
		}
	}
	for _, rep := range c.replicas {
		if err := rep.eng.RollEstimates(c.cfg.EstimatorInterval); err != nil {
			c.fail(err)
		}
	}
	if c.sim.Now() < c.horizon {
		c.sim.Schedule(c.cfg.EstimatorInterval, c.collect)
	}
}

// estimatorProbe samples the estimator's demand view every
// UtilizationInterval and records when it first crosses the overload
// line — the estimator-driven early alarm next to the paper's reactive
// per-server alarm. For the reactive kind the view is the rolled EWMA
// (it can only move at collection rolls); for the predictive kind it
// is the NS-cache forecast, which reacts to TTL handouts between
// rolls. The probe is read-only: it draws from no stream and mutates
// no scheduler state, so installing it never perturbs decisions.
// Sampling starts after warmup, like every other metric: the cold-start
// transient (an entire client population resolving through empty NS
// caches at once) looks exactly like a flash crowd to the forecast and
// would trip the alarm before the system reaches steady state.
type estimatorProbe struct {
	cfg     Config
	sim     *simcore.Simulator
	eng     *engine.Engine
	res     *Result
	horizon float64
}

func (p *estimatorProbe) install() {
	if p.cfg.AlarmThreshold <= 0 {
		return
	}
	p.sim.Schedule(p.cfg.Warmup+p.cfg.UtilizationInterval, p.sample)
}

func (p *estimatorProbe) sample() {
	now := p.sim.Now()
	if p.res.EstimatorAlarmTime == 0 {
		rates, ok := p.eng.ForecastRates(now)
		if !ok {
			rates, ok = p.eng.EstimatorRates()
		}
		if ok {
			var demand float64
			for _, r := range rates {
				demand += r
			}
			if demand > p.cfg.AlarmThreshold*p.cfg.TotalCapacity {
				p.res.EstimatorAlarmTime = now
			}
		}
	}
	if p.res.EstimatorAlarmTime == 0 && now < p.horizon {
		p.sim.Schedule(p.cfg.UtilizationInterval, p.sample)
	}
}
