package sim

import (
	"math"

	"dnslb/internal/simcore"
)

// flashRampSeconds spreads a flash crowd's client arrivals over its
// first seconds instead of one zero-width impulse: real flash crowds
// ramp in seconds-to-minutes, and the stagger keeps the event heap
// from replaying a million same-instant wakes.
const flashRampSeconds = 10.0

// scheduleFlashCrowds installs the flash crowds: at each FlashEvent's
// time a burst of new clients joins one domain for its duration,
// resolving through fresh name-server caches that join the cache tier.
// From the DNS's viewpoint this is a new resolver population: the
// shared per-domain cache would absorb the whole crowd behind one
// cached mapping, but fresh resolvers miss immediately — the decision
// burst that the predictive estimator's NS-cache model forecasts from,
// and that the reactive estimator cannot see until the hits arrive in
// a report.
//
// With no flash crowds configured nothing is scheduled and no stream
// is drawn from: either would shift every other run's seeded output.
func scheduleFlashCrowds(cfg Config, sim *simcore.Simulator, tier *cacheTier, page pageStep) error {
	if len(cfg.FlashCrowds) == 0 {
		return nil
	}
	crowds := newPopulation(sim, cfg.Workload, "flash-", page)
	ramp := sim.Stream("flash-ramp")
	thinks := cfg.Workload.ThinkTimes()
	for _, ev := range cfg.FlashCrowds {
		// A flash crowd is external traffic: even a domain the
		// perturbed workload starved can flash. Fall back to the
		// nominal mean think time for it.
		meanThink := thinks[ev.Domain]
		if math.IsInf(meanThink, 1) {
			meanThink = cfg.Workload.MeanThinkTime
		}
		resolvers, err := tier.addCaches(ev.Resolvers)
		if err != nil {
			return err
		}
		// Each crowd is a population of its own, dissolving at its end.
		pop := *crowds
		pop.end = ev.Time + ev.Duration
		for c := range ev.Clients {
			cl := pop.newClient(c, ev.Domain, meanThink, resolvers[c%ev.Resolvers])
			stagger := ramp.Float64() * math.Min(flashRampSeconds, ev.Duration)
			sim.ScheduleAt(ev.Time+stagger, cl.wake)
		}
	}
	return nil
}
