// Package sim assembles the full simulation of the paper's system: a
// Zipf-skewed client population, per-domain name-server caches, the
// DNS scheduler under test, and the heterogeneous Web server cluster,
// all driven by the discrete-event engine. One Run reproduces one
// point of one figure; the experiments package sweeps Runs.
package sim

import (
	"errors"
	"fmt"
	"math"

	"dnslb/internal/core"
	"dnslb/internal/trace"
	"dnslb/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	// Workload is the client population model.
	Workload workload.Config

	// Trace optionally replaces the generated client population with a
	// recorded workload (see internal/trace): arrivals are replayed
	// verbatim, so every policy faces identical traffic. The Workload
	// field still supplies the domain count and the oracle weights.
	// Records must be in time order with non-negative times, as
	// trace.Read returns them; Run refuses a trace that is not.
	Trace []trace.Record

	// Servers is the cluster size N (paper default 7, range 5–17).
	Servers int
	// HeterogeneityPct is the maximum difference among relative server
	// capacities in percent (paper: 20, 35, 50, 65).
	HeterogeneityPct int
	// TotalCapacity is ΣC_i in hits/second, constant across
	// heterogeneity levels (paper: 500).
	TotalCapacity float64

	// Policy is the DNS scheduling policy catalog name (core package).
	Policy string
	// ConstantTTL is the baseline TTL in seconds all adaptive policies
	// are rate-calibrated against (paper: 240).
	ConstantTTL float64
	// MinNSTTL models non-cooperative name servers: every NS raises a
	// proposed TTL below this value to it. 0 = fully cooperative.
	MinNSTTL float64

	// UtilizationInterval is how often each server recomputes its
	// utilization and evaluates the alarm condition, in seconds
	// (paper: 8).
	UtilizationInterval float64
	// AlarmThreshold is the utilization θ above which a server signals
	// the DNS that it is critically loaded (0 disables alarms).
	AlarmThreshold float64
	// MetricWindow is the observation window for the reported maximum
	// utilization metric, in seconds. It must be a multiple of the
	// utilization interval; each metric observation averages the
	// consecutive alarm-interval utilizations it spans. A longer
	// metric window separates persistent scheduling imbalance from
	// short-term stochastic burst noise (see DESIGN.md).
	MetricWindow float64

	// OracleWeights gives the DNS perfect knowledge of the nominal
	// domain request rates (the paper's setting; perturbations in the
	// workload then model estimation error). When false, the DNS runs
	// the dynamic hidden-load estimator instead.
	OracleWeights bool
	// EstimatorInterval is the collection period of the dynamic
	// estimator in seconds (used when OracleWeights is false).
	EstimatorInterval float64
	// Estimator selects the hidden-load estimator kind when
	// OracleWeights is false: core.EstimatorReactive (the paper's EWMA
	// over reports, default when empty) or core.EstimatorPredictive
	// (the NS-cache forecasting model fed by the engine's own TTL
	// handouts).
	Estimator string

	// FlashCrowds injects flash-crowd events (predictive-estimation
	// extension): at each event time a burst of new clients joins one
	// domain, arriving through FRESH name-server caches — new resolver
	// populations whose cache misses hit the DNS immediately. That
	// decision burst is the signal the predictive estimator forecasts
	// from, one to two collection intervals before the reactive
	// estimator sees the hits in a report.
	FlashCrowds []FlashEvent

	// Faults injects server crash/recovery events at fixed virtual
	// times (failure extension). The DNS learns of a membership change
	// instantly — the optimistic bound; what it cannot fix is the
	// hidden load already pinned to a dead server by cached mappings,
	// which the failure metrics of Result quantify.
	Faults []FaultEvent
	// ReportLossProb is the probability that one server's hidden-load
	// report for one estimator collection interval is lost in transit
	// (failure extension; only meaningful when OracleWeights is false).
	ReportLossProb float64

	// Detection models how the DNS learns about the Faults events
	// instead of the default instant-knowledge bound: a fault flips the
	// server's ground truth immediately (clients lose pages from that
	// moment), but the scheduler's liveness view only follows after the
	// configured detector fires. Nil keeps the instant bound — that path
	// is byte-identical to a build without this field.
	Detection *DetectionConfig

	// Drains schedules graceful server retirements (zero-downtime
	// reconfiguration extension): at its event time the server stops
	// receiving new mappings but keeps serving the hidden load its
	// cached mappings still pin to it; once the largest outstanding TTL
	// expires it leaves membership. This is the simulated counterpart
	// of the live DRAIN path (internal/dnsserver).
	Drains []DrainEvent

	// Replicas runs the DNS as a set of R replicated authoritative
	// servers (replication extension): domain d resolves through replica
	// d mod R — flash crowds and ECS misalignment included — and server
	// i's load reports, alarms, crashes, detector verdicts and drain
	// reach replica i mod R. The replicas exchange soft-state deltas
	// (internal/replication) every ReplicationInterval, so a peer learns
	// a server down or draining one gossip round (plus ReplicaLag)
	// later. 0 or 1 runs the paper's single authoritative DNS: R ≤ 1 is
	// the same assembly with one replica, no replication node and no
	// gossip events. Every other field applies at every R.
	Replicas int
	// ReplicationInterval is the gossip cadence between replicas in
	// virtual seconds (required when Replicas > 1).
	ReplicationInterval float64
	// ReplicaLag delays every inter-replica delta delivery by this many
	// virtual seconds — the staleness knob of the replication extension.
	ReplicaLag float64
	// Partitions cuts every inter-replica link during each [Start,End)
	// window: deltas flushed while cut are dropped (exactly the live
	// replicator's failure model), and the first exchange after healing
	// leads with full anti-entropy snapshots.
	Partitions []PartitionEvent

	// ECSMisalign enables the resolver/client misalignment extension
	// (EDNS-Client-Subnet): a fraction of the domains resolve through a
	// name server located in a DIFFERENT domain, so the address the DNS
	// sees misidentifies where the clients actually are. With UseECS the
	// resolvers forward the clients' true subnet in an ECS option and
	// the engine classifies by it; without, the DNS falls back to the
	// resolver address and proximity-aware policies aim at the wrong
	// domain. Nil keeps the paper's aligned-resolver model — that path
	// is byte-identical to a build without this field.
	ECSMisalign *ECSMisalignConfig

	// GeoPreference enables the proximity extension: with probability
	// GeoPreference the DNS answers with the nearest available server
	// (by the synthetic ring geography) instead of the discipline's
	// choice. 0 disables the extension (the paper's behaviour).
	GeoPreference float64

	// DecisionTap, when non-nil, observes every scheduler decision in
	// scheduling order — the engine's OnDecision seam, which the
	// sim/live conformance and replay tests record from. With
	// Replicas > 1 it sees every replica's decisions, interleaved in
	// virtual-time order. Ignored by Validate and excluded from
	// serialized output.
	DecisionTap func(domain int, d core.Decision) `json:"-"`

	// Duration is the measured virtual time in seconds (paper: 5 h).
	Duration float64
	// Warmup is discarded virtual time before measurement starts.
	Warmup float64
	// Seed makes the run reproducible.
	Seed uint64
}

// Detector kinds for DetectionConfig.Kind.
const (
	// DetectProbe is active probing: the DNS probes each server every
	// Interval seconds and declares it down after FailN consecutive
	// failures, up again after RiseM consecutive successes — the model
	// of the live internal/probe prober.
	DetectProbe = "probe"
	// DetectReport is passive missed-report detection: each server's
	// periodic load report doubles as a liveness signal, and the DNS
	// declares the server down after K consecutive reports fail to
	// arrive. Recovery is seen at the first report after restart — the
	// model of the live LivenessMonitor.
	DetectReport = "report"
)

// DetectionConfig parameterizes the crash detector the DNS runs (see
// Config.Detection). The probe phase relative to each fault event is
// uniform over one interval, drawn from the run's own deterministic
// stream.
type DetectionConfig struct {
	// Kind selects the detector: DetectProbe or DetectReport.
	Kind string
	// Interval is the probe period (probe) or report period (report) in
	// virtual seconds.
	Interval float64
	// FailN and RiseM are the probe detector's hysteresis thresholds
	// (consecutive failures to exclude, consecutive successes to
	// re-admit). Ignored by the report detector.
	FailN, RiseM int
	// K is the report detector's missed-report threshold. Ignored by
	// the probe detector.
	K int
}

func (d *DetectionConfig) validate() error {
	switch d.Kind {
	case DetectProbe:
		if d.FailN < 1 || d.RiseM < 1 {
			return fmt.Errorf("sim: probe detection needs FailN and RiseM >= 1, got %d/%d", d.FailN, d.RiseM)
		}
	case DetectReport:
		if d.K < 1 {
			return fmt.Errorf("sim: report detection needs K >= 1, got %d", d.K)
		}
	default:
		return fmt.Errorf("sim: unknown detection kind %q (want %s or %s)", d.Kind, DetectProbe, DetectReport)
	}
	if !positive(d.Interval) {
		return errors.New("sim: detection interval must be positive and finite")
	}
	return nil
}

// delay returns the detector's lag behind one fault, with the detector
// phase drawn from phase ∈ [0,1). A crash is caught on a probe
// detector's FailN-th consecutive failed probe, or when a report
// detector's K-th expected report fails to arrive; a recovery after
// RiseM successful probes, or with the first report after restart.
func (d *DetectionConfig) delay(down bool, phase float64) float64 {
	rounds := 1
	switch {
	case d.Kind == DetectProbe && down:
		rounds = d.FailN
	case d.Kind == DetectProbe:
		rounds = d.RiseM
	case down:
		rounds = d.K
	}
	return float64((float64(phase) + float64(rounds-1)) * d.Interval)
}

// FaultEvent is one liveness transition of one server at a fixed
// virtual time: Down true crashes the server, false recovers it.
type FaultEvent struct {
	Time   float64
	Server int
	Down   bool
}

// DrainEvent is one graceful retirement of one server at a fixed
// virtual time.
type DrainEvent struct {
	Time   float64
	Server int
}

// PartitionEvent cuts every inter-replica link during [Start,End).
type PartitionEvent struct {
	Start, End float64
}

// FlashEvent is one flash crowd: at virtual time Time, Clients extra
// clients join Domain for Duration seconds, resolving through
// Resolvers fresh name-server caches (a new resolver population — the
// defining property of a flash crowd as seen from the DNS).
type FlashEvent struct {
	Time      float64
	Domain    int
	Clients   int
	Resolvers int
	Duration  float64
}

// Outage returns the crash/recover event pair for one server failing
// at start and coming back after duration seconds.
func Outage(server int, start, duration float64) []FaultEvent {
	return []FaultEvent{
		{Time: start, Server: server, Down: true},
		{Time: start + duration, Server: server, Down: false},
	}
}

// DefaultConfig returns the paper's default parameters (Table 1) for
// the given policy name.
func DefaultConfig(policy string) Config {
	return Config{
		Workload:            workload.Default(),
		Servers:             7,
		HeterogeneityPct:    20,
		TotalCapacity:       500,
		Policy:              policy,
		ConstantTTL:         240,
		UtilizationInterval: 8,
		AlarmThreshold:      0.9,
		MetricWindow:        32,
		OracleWeights:       true,
		EstimatorInterval:   60,
		Duration:            5 * 3600,
		Warmup:              600,
		Seed:                1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	switch {
	case c.Servers <= 0:
		return errors.New("sim: Servers must be positive")
	case c.HeterogeneityPct < 0 || c.HeterogeneityPct >= 100:
		return fmt.Errorf("sim: HeterogeneityPct %d out of [0,100)", c.HeterogeneityPct)
	case !positive(c.TotalCapacity):
		return errors.New("sim: TotalCapacity must be positive and finite")
	case c.Policy == "":
		return errors.New("sim: Policy is required")
	case !positive(c.ConstantTTL):
		return errors.New("sim: ConstantTTL must be positive and finite")
	case !nonNegative(c.MinNSTTL):
		return errors.New("sim: MinNSTTL must be non-negative and finite")
	case !positive(c.UtilizationInterval):
		return errors.New("sim: UtilizationInterval must be positive and finite")
	case !probability(c.AlarmThreshold):
		return errors.New("sim: AlarmThreshold must be within [0,1]")
	case !(c.MetricWindow >= c.UtilizationInterval && positive(c.MetricWindow)):
		return errors.New("sim: MetricWindow must be finite and at least the utilization interval")
	case math.Abs(c.MetricWindow/c.UtilizationInterval-math.Round(c.MetricWindow/c.UtilizationInterval)) > 1e-9:
		return errors.New("sim: MetricWindow must be a multiple of the utilization interval")
	case !c.OracleWeights && !positive(c.EstimatorInterval):
		return errors.New("sim: EstimatorInterval must be positive and finite")
	case c.Estimator != "" && c.Estimator != core.EstimatorReactive && c.Estimator != core.EstimatorPredictive:
		return fmt.Errorf("sim: unknown estimator kind %q (want %s or %s)",
			c.Estimator, core.EstimatorReactive, core.EstimatorPredictive)
	case !positive(c.Duration):
		return errors.New("sim: Duration must be positive and finite")
	case !nonNegative(c.Warmup):
		return errors.New("sim: Warmup must be non-negative and finite")
	case !probability(c.GeoPreference):
		return errors.New("sim: GeoPreference must be within [0,1]")
	case !probability(c.ReportLossProb):
		return errors.New("sim: ReportLossProb must be within [0,1]")
	}
	if c.ECSMisalign != nil {
		if err := c.ECSMisalign.validate(c.Workload.Domains); err != nil {
			return err
		}
	}
	if c.Detection != nil {
		if err := c.Detection.validate(); err != nil {
			return err
		}
	}
	for i, ev := range c.Faults {
		if !nonNegative(ev.Time) {
			return fmt.Errorf("sim: fault event %d at time %v, want non-negative finite", i, ev.Time)
		}
		if ev.Server < 0 || ev.Server >= c.Servers {
			return fmt.Errorf("sim: fault event %d targets server %d, cluster has %d", i, ev.Server, c.Servers)
		}
	}
	for i, ev := range c.Drains {
		if !nonNegative(ev.Time) {
			return fmt.Errorf("sim: drain event %d at time %v, want non-negative finite", i, ev.Time)
		}
		if ev.Server < 0 || ev.Server >= c.Servers {
			return fmt.Errorf("sim: drain event %d targets server %d, cluster has %d", i, ev.Server, c.Servers)
		}
	}
	for i, ev := range c.FlashCrowds {
		switch {
		case !nonNegative(ev.Time):
			return fmt.Errorf("sim: flash crowd %d at time %v, want non-negative finite", i, ev.Time)
		case ev.Domain < 0 || ev.Domain >= c.Workload.Domains:
			return fmt.Errorf("sim: flash crowd %d targets domain %d, workload has %d", i, ev.Domain, c.Workload.Domains)
		case ev.Clients <= 0:
			return fmt.Errorf("sim: flash crowd %d needs a positive client count, got %d", i, ev.Clients)
		case ev.Resolvers <= 0:
			return fmt.Errorf("sim: flash crowd %d needs a positive resolver count, got %d", i, ev.Resolvers)
		case !positive(ev.Duration):
			return fmt.Errorf("sim: flash crowd %d needs a positive finite duration, got %v", i, ev.Duration)
		}
	}
	if len(c.FlashCrowds) > 0 && len(c.Trace) > 0 {
		return errors.New("sim: FlashCrowds cannot be combined with trace playback")
	}
	if c.Replicas < 0 {
		return errors.New("sim: Replicas must be non-negative")
	}
	if c.Replicas > 1 {
		switch {
		case !positive(c.ReplicationInterval):
			return errors.New("sim: ReplicationInterval must be positive and finite when Replicas > 1")
		case !nonNegative(c.ReplicaLag):
			return errors.New("sim: ReplicaLag must be non-negative and finite")
		}
		for i, p := range c.Partitions {
			if !nonNegative(p.Start) || !(p.End > p.Start && positive(p.End)) {
				return fmt.Errorf("sim: partition %d window [%v,%v) is not a positive interval", i, p.Start, p.End)
			}
		}
	} else if len(c.Partitions) > 0 {
		return errors.New("sim: Partitions require Replicas > 1")
	}
	return nil
}

// positive reports whether x is positive and finite; NaN is not.
func positive(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

// nonNegative reports whether x is non-negative and finite; NaN is not.
func nonNegative(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// probability reports whether x lies within [0,1]; NaN does not.
func probability(x float64) bool { return x >= 0 && x <= 1 }
