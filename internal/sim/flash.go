package sim

import (
	"math"

	"dnslb/internal/nameserver"
	"dnslb/internal/simcore"
)

// flashRampSeconds spreads a flash crowd's client arrivals over its
// first seconds instead of one zero-width impulse: real flash crowds
// ramp in seconds-to-minutes, and the stagger keeps the event heap
// from replaying a million same-instant wakes.
const flashRampSeconds = 10.0

// flashInjector installs flash-crowd events: at each FlashEvent's time
// a burst of new clients joins one domain for its duration, resolving
// through fresh name-server caches. From the DNS's viewpoint this is a
// new resolver population: the shared per-domain cache of the normal
// tier would absorb the whole crowd behind one cached mapping, but
// fresh resolvers miss immediately — the decision burst that the
// predictive estimator's NS-cache model forecasts from, and that the
// reactive estimator cannot see until the hits arrive in a report.
//
// With no flash crowds configured the injector must schedule nothing
// and draw from no stream: either would shift every other run's
// seeded output.
type flashInjector struct {
	cfg     Config
	sim     *simcore.Simulator
	tier    *cacheTier
	deliver func(domain, server, hits int)
	fail    func(error)

	caches []*nameserver.Cache
}

func (f *flashInjector) install() {
	if len(f.cfg.FlashCrowds) == 0 {
		return
	}
	think := f.sim.Stream("flash-think")
	hitsStream := f.sim.Stream("flash-hits")
	pages := f.sim.Stream("flash-pages")
	ramp := f.sim.Stream("flash-ramp")
	thinks := f.cfg.Workload.ThinkTimes()
	for _, ev := range f.cfg.FlashCrowds {
		ev := ev
		// A flash crowd is external traffic: even a domain the
		// perturbed workload starved can flash. Fall back to the
		// nominal mean think time for it.
		meanThink := thinks[ev.Domain]
		if math.IsInf(meanThink, 1) {
			meanThink = f.cfg.Workload.MeanThinkTime
		}
		resolvers := make([]*nameserver.Cache, ev.Resolvers)
		for r := range resolvers {
			c, err := nameserver.New(f.cfg.MinNSTTL)
			if err != nil {
				f.fail(err)
				return
			}
			resolvers[r] = c
		}
		f.caches = append(f.caches, resolvers...)
		end := ev.Time + ev.Duration
		for c := 0; c < ev.Clients; c++ {
			cache := resolvers[c%ev.Resolvers]
			cl := &client{domain: ev.Domain}
			var wake func()
			wake = func() {
				now := f.sim.Now()
				if now >= end {
					return // the crowd dissolved
				}
				if cl.pagesLeft == 0 {
					cl.server = f.tier.resolveVia(cache, cl.domain)
					cl.pagesLeft = pages.Geometric(f.cfg.Workload.PagesPerSession)
				}
				hits := hitsStream.UniformInt(f.cfg.Workload.HitsMin, f.cfg.Workload.HitsMax)
				f.deliver(cl.domain, cl.server, hits)
				cl.pagesLeft--
				f.sim.Schedule(think.Exp(meanThink), wake)
			}
			stagger := ramp.Float64() * math.Min(flashRampSeconds, ev.Duration)
			f.sim.ScheduleAt(ev.Time+stagger, wake)
		}
	}
}

// collect folds the flash resolvers' cache counters into the result,
// like the normal tier's.
func (f *flashInjector) collect(res *Result) {
	for _, c := range f.caches {
		st := c.Stats()
		res.CacheHits += st.Hits
		res.ClampedTTLs += st.Clamped
	}
}
