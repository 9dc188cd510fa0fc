package sim

import (
	"fmt"
	"runtime"
	"sync"

	"dnslb/internal/core"
	"dnslb/internal/engine"
	"dnslb/internal/nameserver"
	"dnslb/internal/replication"
	"dnslb/internal/simcore"
	"dnslb/internal/stats"
	"dnslb/internal/webserver"
)

// Result holds the outputs of one simulation run.
type Result struct {
	// Config echoes the run's configuration.
	Config Config
	// MaxUtil is the per-window maximum server utilization series
	// after warm-up — the paper's primary metric source.
	MaxUtil *stats.Series
	// MeanServerUtil is each server's mean utilization over the
	// measured period.
	MeanServerUtil []float64
	// AddressRequests counts DNS scheduler decisions (NS cache misses).
	AddressRequests uint64
	// CacheHits counts NS lookups answered from cache.
	CacheHits uint64
	// TotalHits and TotalPages count the data requests served.
	TotalHits  uint64
	TotalPages uint64
	// AlarmSignals counts alarm state transitions sent to the DNS.
	AlarmSignals uint64
	// MeanResponseTime is the traffic-weighted mean page response time
	// (queue wait + service) across servers, in seconds — a secondary
	// metric: overload shows up as unbounded queueing delay.
	MeanResponseTime float64
	// MaxResponseTime is the worst page response time at any server.
	MaxResponseTime float64
	// MeanLatencyMS is the traffic-weighted mean client-to-server
	// network distance under the geo extension (0 unless GeoPreference
	// or the geo matrix is enabled).
	MeanLatencyMS float64
	// Sched is the scheduling policy's own counters.
	Sched core.Stats
	// ClampedTTLs counts mappings whose TTL a non-cooperative NS raised.
	ClampedTTLs uint64
	// EventsFired is the engine's executed event count.
	EventsFired uint64

	// DeadServerHits counts hits addressed to a server while it was
	// down: the TTL-pinned traffic cached mappings keep sending to a
	// dead server until they expire. Every such page is also lost.
	DeadServerHits uint64
	// LostPages counts page bursts that could not be served: their
	// target server was down, or no server was available at resolve
	// time.
	LostPages uint64
	// FailedResolves counts address requests the scheduler answered
	// with "no server available" (the whole cluster was down).
	FailedResolves uint64
	// MeanTimeToDrain is the mean delay, over recovery events, from a
	// server coming back until client traffic reaches it again — how
	// long stale cached mappings and pointer state keep a recovered
	// server idle. 0 when no recovery was observed (or traffic never
	// returned).
	MeanTimeToDrain float64
	// LostReports counts hidden-load reports dropped by the
	// report-loss fault model.
	LostReports uint64
	// MeanDetectionDelay is the mean virtual-time lag from a crash to
	// the scheduler excluding the server, over detected crashes, under
	// the Detection model (0 under instant knowledge).
	MeanDetectionDelay float64
	// MeanReviveDelay is the mean lag from a recovery to the scheduler
	// re-admitting the server (0 under instant knowledge).
	MeanReviveDelay float64
	// DetectedCrashes counts crash events the detector caught before
	// they were superseded.
	DetectedCrashes uint64

	// ReplDecisions counts scheduler decisions made by each replica
	// (replication extension; nil for a single-replica run).
	ReplDecisions []uint64
	// ReplDeltasApplied counts inter-replica deltas merged after
	// fencing; ReplDeltasDropped counts deltas dropped whole
	// (duplicates, stale epochs, echoes).
	ReplDeltasApplied uint64
	ReplDeltasDropped uint64
	// ReplFullSyncs counts anti-entropy snapshot deltas shipped (the
	// initial contact and every post-partition heal).
	ReplFullSyncs uint64
	// ReplMaxWeightDiff is the largest absolute per-domain weight
	// disagreement between any two replicas' estimators at the horizon —
	// the staleness cost replication pays for availability.
	ReplMaxWeightDiff float64
	// ReplLedgerDivergenceSec is the largest absolute disagreement, in
	// seconds, between any two replicas' hidden-load window expiries at
	// the horizon.
	ReplLedgerDivergenceSec float64

	// EstimatorAlarmTime is the first virtual time the estimator's
	// demand view (the NS-cache forecast for the predictive kind, the
	// rolled EWMA for the reactive one) exceeded AlarmThreshold ×
	// TotalCapacity — the estimator-driven overload alarm. 0 when it
	// never fired, the estimator is disabled, or alarms are off. The
	// reactive-vs-predictive difference on a flash crowd is the
	// forecast's alarm lead time (ext-forecast experiment).
	EstimatorAlarmTime float64
	// EstimatorRejected counts per-domain hit observations the
	// estimator refused (out-of-range domain or negative count).
	EstimatorRejected uint64
	// ForecastAbsError is the predictive estimator's smoothed mean
	// absolute forecast error in hits/s at the horizon (0 for other
	// kinds).
	ForecastAbsError float64

	// ECSQueries counts scheduler decisions made through the resolver
	// population model of the misalignment extension (0 unless
	// Config.ECSMisalign is set).
	ECSQueries uint64
	// ECSCarried counts those queries that forwarded the clients' true
	// subnet in an ECS option.
	ECSCarried uint64
	// ECSMisrouted counts decisions the engine classified to a
	// different domain than the clients' true one — misaligned
	// resolvers without ECS. With ECS enabled it must drop to zero.
	ECSMisrouted uint64

	// DrainedServerHits counts hits served by a draining server — the
	// hidden load its pre-drain cached mappings kept directing at it
	// while the drain window was open.
	DrainedServerHits uint64
	// PostDrainMappings counts scheduler decisions that chose a
	// draining or removed server; it must be zero when the policy
	// honours membership.
	PostDrainMappings uint64
	// PostRemovalHits counts hits addressed to a server after it left
	// membership — sessions outliving the drain window. Those pages
	// are lost (the machine is gone).
	PostRemovalHits uint64
}

// ProbMaxUnder returns the fraction of measurement windows in which
// every server's utilization stayed below the level x — the paper's
// cumulative frequency of the maximum utilization.
func (r *Result) ProbMaxUnder(x float64) float64 { return r.MaxUtil.CDF(x) }

// AddressRate returns scheduler decisions per virtual second.
func (r *Result) AddressRate() float64 {
	return float64(r.AddressRequests) / (r.Config.Duration + r.Config.Warmup)
}

// ControlledFraction returns the fraction of page requests whose
// routing the DNS directly decided — the paper's observation that the
// scheduler controls only a small percentage of the requests.
func (r *Result) ControlledFraction() float64 {
	if r.TotalPages == 0 {
		return 0
	}
	return float64(r.AddressRequests) / float64(r.TotalPages)
}

// failSlot records the first error raised inside a scheduled event;
// the run reports it after the virtual horizon.
type failSlot struct{ err error }

func (f *failSlot) fail(err error) {
	if f.err == nil {
		f.err = err
	}
}

// Run executes one simulation and returns its results.
//
// Run is the one assembly of components around a set of scheduling
// engines (internal/engine) — the same decision lifecycle the live DNS
// server runs, here under virtual time:
//
//   - the replica set: max(1, Config.Replicas) authoritative DNS
//     engines, each with its own state, policy and estimator. One
//     replica is the paper's single DNS: no replication node, no gossip
//     event. In a larger set, domain d resolves through replica d mod R,
//     everything about server i happens at replica i mod R, and the
//     replica exchange (replica.go) gossips the rest;
//   - the traffic source (the client population or trace playback,
//     plus any flash crowds), every page through one page step,
//   - the NS cache tier resolving sessions through the engines,
//   - the traffic sink routing page bursts to the Web servers,
//   - the fault and drain injectors, at the server's authority replica,
//   - the utilization and estimator collectors.
//
// Component installation order is part of the deterministic contract:
// the event list breaks time ties by insertion order, so traffic is
// installed first, then the flash-crowd injector, the replica exchange
// (R > 1 only), the utilization sampler, the fault injector, the drain
// injector, the estimator collector, and the estimator probe (the last
// two only when the hidden-load estimator is enabled). Random streams
// derive from (seed, name), so their creation order is free.
func Run(cfg Config) (*Result, error) { return run(cfg, scheduleTrace) }

// run is Run with the trace playback installer as a parameter, so a
// test can hold scheduleTrace to scheduling every record up front.
func run(cfg Config, playTrace func(Config, *simcore.Simulator, []*nameserver.Cache, pageStep) error) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cluster, err := core.ScaledCluster(cfg.Servers, cfg.HeterogeneityPct, cfg.TotalCapacity)
	if err != nil {
		return nil, err
	}
	sc := simcore.New(cfg.Seed)
	prox, err := core.RingProximityConfig(cfg.Workload.Domains, cfg.Servers, cfg.GeoPreference)
	if err != nil {
		return nil, err
	}
	var geo *core.LatencyMatrix
	if prox != nil {
		geo = prox.Matrix
	}
	var ecs *ecsResolvers
	if cfg.ECSMisalign != nil {
		ecs = newECSResolvers(cfg.ECSMisalign, cfg.Workload.Domains)
	}

	replicas, err := newReplicas(cfg, cluster, sc, prox, ecs != nil)
	if err != nil {
		return nil, err
	}
	servers := make([]*webserver.Server, cfg.Servers)
	for i := range servers {
		servers[i], err = webserver.New(cluster.Capacity(i), cfg.Workload.Domains)
		if err != nil {
			return nil, err
		}
	}

	res := &Result{Config: cfg}
	var sched failSlot
	fail := sched.fail
	horizon := cfg.Warmup + cfg.Duration

	recov := newDrainTracker(cfg.Servers)
	sink := &trafficSink{sim: sc, replicas: replicas, servers: servers, geo: geo, recov: recov, res: res}
	tier, err := newCacheTier(cfg, sc, replicas, res, fail)
	if err != nil {
		return nil, err
	}
	tier.ecs = ecs

	// Every kind of traffic — the workload's clients, trace playback and
	// flash crowds — sends its pages through this one step.
	page := func(cl *client, newSession bool, hits int) {
		if newSession {
			cl.server = tier.resolve(cl.cache, cl.domain)
		}
		sink.deliver(cl.domain, cl.server, hits)
	}
	if len(cfg.Trace) > 0 {
		if err := playTrace(cfg, sc, tier.caches, page); err != nil {
			return nil, err
		}
	} else {
		newPopulation(sc, cfg.Workload, "", page).spawn(tier.caches)
	}
	if err := scheduleFlashCrowds(cfg, sc, tier, page); err != nil {
		return nil, err
	}
	if len(replicas) > 1 {
		(&replicaExchange{sim: sc, cfg: cfg, replicas: replicas, fail: fail, horizon: horizon}).install()
	}
	util := newUtilizationCollector(cfg, sc, replicas, servers, res, fail, horizon)
	util.install()
	faults := &faultInjector{sim: sc, replicas: replicas, recov: recov, fail: fail}
	if cfg.Detection != nil {
		actual := make([]bool, cfg.Servers)
		sink.actual = actual
		faults.detect = cfg.Detection
		faults.actual = actual
		faults.stream = sc.Stream("detect")
		faults.gen = make([]uint64, cfg.Servers)
	}
	faults.install(cfg.Faults)
	(&drainInjector{sim: sc, replicas: replicas, fail: fail}).install(cfg.Drains)
	// The estimator probe and the estimator and policy result folds are
	// replica 0's view.
	eng := replicas[0].eng
	if eng.HasEstimator() {
		(&estimatorCollector{cfg: cfg, sim: sc, replicas: replicas, servers: servers, res: res, fail: fail, horizon: horizon}).install()
		(&estimatorProbe{cfg: cfg, sim: sc, eng: eng, res: res, horizon: horizon}).install()
	}

	sc.Run(horizon)
	if sched.err != nil {
		return nil, fmt.Errorf("sim: scheduling failed: %w", sched.err)
	}

	res.MaxUtil = util.maxUtil.Series()
	res.MeanServerUtil = make([]float64, cfg.Servers)
	var weightedResponse float64
	for i, sv := range servers {
		res.MeanServerUtil[i] = sv.MeanUtilization(sc.Now())
		res.TotalHits += sv.TotalHits()
		res.TotalPages += sv.TotalPages()
		weightedResponse += float64(sv.MeanResponseTime() * float64(sv.TotalPages()))
		if sv.MaxResponseTime() > res.MaxResponseTime {
			res.MaxResponseTime = sv.MaxResponseTime()
		}
	}
	if res.TotalPages > 0 {
		res.MeanResponseTime = weightedResponse / float64(res.TotalPages)
	}
	res.MeanLatencyMS = sink.meanLatencyMS()
	res.MeanTimeToDrain = recov.mean()
	if faults.downDetects > 0 {
		res.MeanDetectionDelay = faults.downDelaySum / float64(faults.downDetects)
	}
	if faults.upDetects > 0 {
		res.MeanReviveDelay = faults.upDelaySum / float64(faults.upDetects)
	}
	res.DetectedCrashes = faults.downDetects
	tier.collect(res)
	if ecs != nil {
		ecs.collect(res)
	}
	res.EstimatorRejected = eng.EstimatorRejected()
	if abs, ok := eng.ForecastError(); ok {
		res.ForecastAbsError = abs
	}
	res.Sched = eng.Policy().Stats()
	if len(replicas) > 1 {
		res.Sched = aggregateSched(replicas)
		collectReplStats(replicas, res)
	}
	res.EventsFired = sc.EventsFired()
	return res, nil
}

// newReplicas builds the replica set: max(1, cfg.Replicas) engines,
// each over its own state, policy and estimator, and — in a set of more
// than one — its replication node.
func newReplicas(cfg Config, cluster *core.Cluster, sc *simcore.Simulator, prox *core.ProximityConfig, useECS bool) ([]*replica, error) {
	replicas := make([]*replica, max(1, cfg.Replicas))
	for r := range replicas {
		state, err := core.NewState(cluster, cfg.Workload.Domains)
		if err != nil {
			return nil, err
		}
		if err := state.SetWeights(cfg.Workload.OracleWeights()); err != nil {
			return nil, err
		}
		// The stream names are part of the seeded output: a lone replica
		// draws from "policy", replica r of a larger set from "policy-r".
		// A lone replica also hands the caller's tap to the engine as is.
		rep := &replica{state: state}
		stream, onDecision := "policy", cfg.DecisionTap
		if len(replicas) > 1 {
			stream = fmt.Sprintf("policy-%d", r)
			// rep.node is assigned below, before any decision is made.
			tap := cfg.DecisionTap
			onDecision = func(domain int, d core.Decision) {
				rep.decisions++
				if tap != nil {
					tap(domain, d)
				}
				rep.node.Observe(domain, d)
			}
		}
		policy, err := core.NewPolicy(core.PolicyConfig{
			Name:        cfg.Policy,
			State:       state,
			Rand:        sc.Stream(stream),
			Now:         sc.Now,
			ConstantTTL: cfg.ConstantTTL,
			Proximity:   prox,
		})
		if err != nil {
			return nil, err
		}
		engCfg := engine.Config{
			Policy:     policy,
			Clock:      engine.ClockFunc(sc.Now),
			OnDecision: onDecision,
		}
		// The interface field is assigned only when feedback is enabled:
		// a typed-nil concrete pointer in the interface would make the
		// engine believe an estimator exists.
		if !cfg.OracleWeights {
			engCfg.Estimator, err = core.NewLoadEstimator(cfg.Estimator, cfg.Workload.Domains, core.DefaultEstimatorAlpha)
			if err != nil {
				return nil, err
			}
		}
		if useECS {
			// The misalignment extension routes decisions through the
			// engine's DecideQuery seam, which needs the address→domain
			// mapper; without it no decision ever calls the mapper.
			engCfg.Mapper = ecsDomainMapper(cfg.Workload.Domains)
		}
		rep.eng, err = engine.New(engCfg)
		if err != nil {
			return nil, err
		}
		if len(replicas) > 1 {
			rep.node, err = replication.NewNode(replication.NodeConfig{
				Origin: fmt.Sprintf("replica-%d", r),
				Epoch:  1,
				Engine: rep.eng,
				Base:   replication.IdentityBase{},
			})
			if err != nil {
				return nil, err
			}
		}
		replicas[r] = rep
	}
	return replicas, nil
}

// RunReplications executes the same configuration with seeds
// seed, seed+1, … and returns all results.
func RunReplications(cfg Config, reps int) ([]*Result, error) {
	if reps <= 0 {
		return nil, fmt.Errorf("sim: reps %d must be positive", reps)
	}
	out := make([]*Result, 0, reps)
	for r := 0; r < reps; r++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(r)
		res, err := Run(c)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// RunReplicationsParallel is RunReplications fanned across up to
// `workers` goroutines (capped at reps; 0 or negative means
// runtime.NumCPU). Every replication is an independent simulation with
// its own engine, state and policy, so runs never share mutable state;
// results come back in seed order and are identical to the sequential
// runner's — parallelism changes wall-clock only, never output.
func RunReplicationsParallel(cfg Config, reps, workers int) ([]*Result, error) {
	if reps <= 0 {
		return nil, fmt.Errorf("sim: reps %d must be positive", reps)
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > reps {
		workers = reps
	}
	if workers == 1 {
		return RunReplications(cfg, reps)
	}
	out := make([]*Result, reps)
	errs := make([]error, reps)
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for r := range next {
				c := cfg
				c.Seed = cfg.Seed + uint64(r)
				out[r], errs[r] = Run(c)
			}
		}()
	}
	for r := 0; r < reps; r++ {
		next <- r
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ProbMaxUnderCI aggregates Prob(MaxUtilization < x) across
// replications into a confidence interval.
func ProbMaxUnderCI(results []*Result, x, level float64) stats.Interval {
	obs := make([]float64, len(results))
	for i, r := range results {
		obs[i] = r.ProbMaxUnder(x)
	}
	return stats.MeanCI(obs, level)
}
