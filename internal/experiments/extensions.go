package experiments

import (
	"errors"
	"fmt"
	"math"

	"dnslb/internal/core"
	"dnslb/internal/sim"
)

// This file defines experiments beyond the paper's figures: the
// parameter sweeps the paper mentions but does not plot (number of
// domains, number of servers, offered load) and ablations of the
// design choices DESIGN.md calls out (class count i, the alarm
// mechanism, the metric window, oracle vs dynamic estimation, and the
// DAL/MRL baseline pair).

// ExtDomains sweeps the number of connected domains K over the paper's
// stated range 10–100 (Table 1). More domains = finer-grained hidden
// load units, which helps every policy; the adaptive schemes keep
// their lead throughout.
func ExtDomains(o Options) (*Figure, error) {
	return sweep{
		id: "ext-domains", title: "Sensitivity to the number of connected domains",
		xlabel: "Connected domains K",
		xs:     []float64{10, 20, 50, 100},
		lines: policyLines(func(cfg *sim.Config, x float64) { cfg.Workload.Domains = int(x) },
			"DRR2-TTL/S_K", "PRR2-TTL/K", "PRR2-TTL/2", "RR"),
	}.run(o)
}

// ExtServers sweeps the cluster size N over the paper's stated range
// 5–17 (Table 1) at constant total capacity: more servers mean smaller
// per-server capacity, so a single hot-domain mapping hurts more.
func ExtServers(o Options) (*Figure, error) {
	return sweep{
		id: "ext-servers", title: "Sensitivity to the number of Web servers",
		xlabel: "Web servers N",
		xs:     []float64{5, 7, 11, 17},
		lines: policyLines(func(cfg *sim.Config, x float64) { cfg.Servers = int(x) },
			"DRR2-TTL/S_K", "PRR2-TTL/K", "PRR2-TTL/2", "RR"),
	}.run(o)
}

// ExtLoad sweeps the offered load by varying the mean think time
// (Table 1 range 0–30 s): think 12 s ≈ 83% average utilization,
// think 30 s ≈ 33%.
func ExtLoad(o Options) (*Figure, error) {
	return sweep{
		id: "ext-load", title: "Sensitivity to offered load (mean think time)",
		xlabel: "Mean think time (s)",
		xs:     []float64{12, 15, 20, 30},
		lines: policyLines(func(cfg *sim.Config, x float64) { cfg.Workload.MeanThinkTime = x },
			"DRR2-TTL/S_K", "PRR2-TTL/K", "RR"),
	}.run(o)
}

// ExtClasses ablates the TTL/i meta-algorithm's class count at 35%
// heterogeneity: i = 1 is the constant-TTL degenerate case, i = K the
// per-domain limit. The paper evaluates only i ∈ {1, 2, K}; this sweep
// fills in the middle and shows where the returns diminish.
func ExtClasses(o Options) (*Figure, error) {
	family := func(name, pattern string) line {
		return line{name, func(cfg *sim.Config, x float64) {
			cfg.Policy = fmt.Sprintf(pattern, int(x))
			cfg.HeterogeneityPct = 35
		}}
	}
	return sweep{
		id: "ext-classes", title: "TTL/i class-count ablation (Het. 35%)",
		xlabel: "TTL classes i (20 = per-domain)",
		xs:     []float64{1, 2, 3, 4, 6, 8, 20},
		lines:  []line{family("DRR2-TTL/S_i", "DRR2-TTL/S_%d"), family("PRR2-TTL/i", "PRR2-TTL/%d")},
	}.run(o)
}

// ExtAlarm ablates the asynchronous alarm feedback: threshold 0
// disables it entirely; lower thresholds exclude servers earlier.
// The paper assumes θ = 0.9 for every algorithm.
func ExtAlarm(o Options) (*Figure, error) {
	return sweep{
		id: "ext-alarm", title: "Alarm-threshold ablation (Het. 35%)",
		xlabel: "Alarm threshold θ (0 = no feedback)",
		xs:     []float64{0, 0.7, 0.8, 0.9, 0.95},
		lines: policyLines(func(cfg *sim.Config, x float64) {
			cfg.HeterogeneityPct = 35
			cfg.AlarmThreshold = x
		}, "DRR2-TTL/S_K", "PRR2-TTL/2", "RR"),
	}.run(o)
}

// ExtWindow ablates the metric observation window, the one parameter
// this reproduction chose itself (DESIGN.md §7): the policy ordering
// must be window-invariant even though absolute levels shift.
func ExtWindow(o Options) (*Figure, error) {
	return sweep{
		id: "ext-window", title: "Metric-window ablation (Het. 20%)",
		xlabel: "Metric window (s)",
		xs:     []float64{8, 16, 32, 64, 128},
		lines: policyLines(func(cfg *sim.Config, x float64) { cfg.MetricWindow = x },
			"Ideal", "DRR2-TTL/S_K", "PRR2-TTL/2", "RR"),
	}.run(o)
}

// ExtEstimator compares the paper's oracle hidden-load weights against
// the dynamic estimator at several collection intervals. Short
// intervals are noisy, long intervals stale; both bracket the oracle.
func ExtEstimator(o Options) (*Figure, error) {
	mode := func(name string, oracle bool) line {
		return line{"DRR2-TTL/S_K " + name, func(cfg *sim.Config, x float64) {
			cfg.Policy = "DRR2-TTL/S_K"
			cfg.HeterogeneityPct = 35
			cfg.OracleWeights = oracle
			cfg.EstimatorInterval = x
		}}
	}
	return sweep{
		id: "ext-estimator", title: "Dynamic hidden-load estimation vs oracle (Het. 35%)",
		xlabel: "Estimator collection interval (s)",
		xs:     []float64{15, 30, 60, 120, 240},
		lines:  []line{mode("oracle", true), mode("estimator", false)},
	}.run(o)
}

// ExtForecast compares the two hidden-load estimator kinds on flash
// crowds (extension, DESIGN.md §14): a burst of new clients joins one
// domain through fresh name-server caches, and the x-axis sweeps the
// crowd size. The alarm-delay series report how long after the onset
// each estimator's demand view crosses the alarm line θ·C, in
// collection intervals: the reactive EWMA must wait for hit reports to
// roll in (one to two intervals), while the predictive NS-cache
// forecast moves on the decision burst itself and alarms within the
// probe's sampling grid. The balance series show the forecast buys its
// lead without costing balance — both kinds schedule through the same
// rolled weights.
func ExtForecast(o Options) (*Figure, error) {
	estimator := func(kind string) line {
		return line{kind, func(cfg *sim.Config, x float64) {
			cfg.Policy = "DRR2-TTL/S_K"
			cfg.OracleWeights = false
			cfg.Estimator = kind
			// The crowd arrives well after the caches are warm, early enough
			// that short measurement runs still cover the whole episode.
			onset := cfg.Warmup + math.Min(1200, cfg.Duration/2)
			cfg.FlashCrowds = []sim.FlashEvent{{
				Time: onset, Domain: 0, Clients: int(x), Resolvers: 40, Duration: 900,
			}}
		}}
	}
	return sweep{
		id: "ext-forecast", title: "Forecast-driven early alarm on flash crowds (Het. 20%)",
		xlabel: "Flash-crowd size (clients)",
		ylabel: "Alarm delay after onset (collection intervals) / Prob(MaxUtilization < 0.98)",
		xs:     []float64{250, 350, 450, 600},
		lines:  []line{estimator(core.EstimatorReactive), estimator(core.EstimatorPredictive)},
		reads:  []reading{{"alarm delay", alarmDelay}, {"balance", maxUtilUnder}},
	}.run(o)
}

// alarmDelay reads how long after the flash onset the estimator's
// demand view crossed the alarm line, in collection intervals. An alarm
// before the onset is not a delay, so it is refused like no alarm.
func alarmDelay(cfg *sim.Config, r *sim.Result) (float64, error) {
	onset := cfg.FlashCrowds[0].Time
	switch {
	case r.EstimatorAlarmTime == 0:
		return 0, errors.New("demand never crossed the alarm line")
	case r.EstimatorAlarmTime < onset:
		return 0, fmt.Errorf("demand crossed the alarm line at %.0f s, before the flash onset at %.0f s",
			r.EstimatorAlarmTime, onset)
	}
	return (r.EstimatorAlarmTime - onset) / cfg.EstimatorInterval, nil
}

// ExtGeo sweeps the GeoDNS-style proximity preference (extension):
// with probability p the DNS answers with the nearest server on a
// synthetic ring geography instead of the adaptive discipline's
// choice. The figure shows the load/latency tradeoff: the balance
// metric and the mean client-server distance, normalized so both fit
// the probability axis.
func ExtGeo(o Options) (*Figure, error) {
	return sweep{
		id: "ext-geo", title: "Proximity preference tradeoff (Het. 35%, ring geography)",
		xlabel: "Nearest-server preference p",
		ylabel: "Prob(MaxUtil < 0.98) / normalized mean latency",
		xs:     []float64{0, 0.25, 0.5, 0.75, 1},
		lines: []line{{"", func(cfg *sim.Config, p float64) {
			cfg.Policy = "DRR2-TTL/S_K"
			cfg.HeterogeneityPct = 35
			// At p = 0 still build the matrix, so latency is measured there.
			cfg.GeoPreference = math.Max(p, 1e-9)
		}}},
		reads: []reading{
			{"Prob(MaxUtil<0.98)", maxUtilUnder},
			{"mean latency / 200ms", func(_ *sim.Config, r *sim.Result) (float64, error) {
				return r.MeanLatencyMS / 200, nil
			}},
		},
	}.run(o)
}

// ExtReplication sweeps the inter-replica delivery lag of the
// multi-replica authoritative DNS (replication extension): two
// replicas split the namespace and gossip soft-state deltas, so each
// schedules on a view up to one gossip round plus the lag stale. The
// balance series shows what that staleness costs; the partitioned
// series repeats the sweep with a 30-second total link cut mid-run —
// availability is preserved by construction (replicas answer from
// local state), so the partition shows up only as extra staleness.
// The sweep runs the dynamic hidden-load estimator (not the oracle):
// each replica sees only its own servers' hit reports directly and
// learns the rest through gossip, so replication staleness feeds
// straight into the weight estimates the disciplines schedule by.
func ExtReplication(o Options) (*Figure, error) {
	variant := func(name string, partition bool) line {
		return line{name, func(cfg *sim.Config, lag float64) {
			cfg.Policy = "DRR2-TTL/S_K"
			cfg.HeterogeneityPct = 35
			cfg.OracleWeights = false
			cfg.Replicas = 2
			cfg.ReplicationInterval = 8
			cfg.ReplicaLag = lag
			if partition {
				// Cut every link for 30 s once the caches are warm.
				cfg.Partitions = []sim.PartitionEvent{{Start: cfg.Warmup + 600, End: cfg.Warmup + 630}}
			}
		}}
	}
	return sweep{
		id: "ext-replication", title: "Two-replica DNS: staleness vs balance (Het. 35%)",
		xlabel: "Inter-replica delivery lag (s)",
		xs:     []float64{0, 1, 5, 15, 60},
		lines: []line{
			variant("DRR2-TTL/S_K, 2 replicas", false),
			variant("DRR2-TTL/S_K, 2 replicas + 30s partition", true),
		},
	}.run(o)
}

// ExtFailures measures the cost of a server crash under address
// caching (extension): the most capable server fails for the x-axis
// duration mid-run, and the y-axis reports the fraction of pages that
// hit it while TTL-pinned mappings were still naming it. New DNS
// decisions exclude the dead server immediately; only cached mappings
// keep losing pages until their TTL expires or the server returns.
// Comparing the adaptive DRR2-TTL/S_K against constant-TTL RR2
// (TTL/1) shows failure cost is governed by the residual TTL mass a
// discipline leaves in the resolvers' caches, not by how it balances
// load — the calibration that equalizes mean DNS request rates also
// roughly equalizes pinned loss.
func ExtFailures(o Options) (*Figure, error) {
	crash := func(name, policy string) line {
		return line{name, func(cfg *sim.Config, d float64) {
			cfg.Policy = policy
			cfg.HeterogeneityPct = 35
			// Crash after the caches are fully populated.
			cfg.Faults = sim.Outage(0, cfg.Warmup+300, d)
		}}
	}
	return sweep{
		id: "ext-failures", title: "Pinned-load loss under a server crash (Het. 35%)",
		xlabel: "Outage duration of the most capable server (s)",
		ylabel: "Lost pages / total pages",
		xs:     []float64{300, 600, 1200, 2400},
		lines: []line{
			crash("DRR2-TTL/S_K (adaptive TTL)", "DRR2-TTL/S_K"),
			crash("RR2 (constant TTL)", "RR2"),
		},
		reads: []reading{{"", func(_ *sim.Config, r *sim.Result) (float64, error) {
			if total := r.DeadServerHits + r.TotalHits; total > 0 {
				return float64(r.DeadServerHits) / float64(total), nil
			}
			return 0, nil
		}}},
	}.run(o)
}

// ExtBaselines compares the homogeneous-system baselines (DAL with
// step expiry, MRL with linear decay) and modern smooth weighted
// round robin (WRR, capacity-proportional but TTL-blind) against
// RR/RR2 across the heterogeneity range — none approaches the
// adaptive TTL schemes, because the bottleneck is the hidden load
// behind each cached mapping, not the instantaneous rotation.
func ExtBaselines(o Options) (*Figure, error) {
	return sweep{
		id: "ext-baselines", title: "Homogeneous-system baselines under heterogeneity",
		xlabel: "Heterogeneity (max difference among server capacities %)",
		xs:     []float64{20, 35, 50, 65},
		lines: policyLines(func(cfg *sim.Config, x float64) { cfg.HeterogeneityPct = int(x) },
			"DRR2-TTL/S_K", "WRR", "DAL", "MRL", "RR2", "RR"),
	}.run(o)
}

// ExtProbes compares crash-detection latency between active probing
// and passive missed-report detection (robustness extension). The
// instant-knowledge bound of ext-failures assumes the DNS learns of a
// crash at the moment it happens; in the live system it learns either
// from FailN consecutive failed health probes (internal/probe) or from
// K consecutive missed load reports (the LivenessMonitor). Reports
// only arrive once per estimator interval (paper: 60 s), so the
// passive detector's latency is locked to K×60 s regardless of how
// fast probes could run — the series shows active probing cutting
// detection latency by an order of magnitude at equal hysteresis
// depth, which is the operational argument for running both.
func ExtProbes(o Options) (*Figure, error) {
	const outageStart, outageLen = 300, 900
	detector := func(name string, det func(x float64) sim.DetectionConfig) line {
		return line{name, func(cfg *sim.Config, x float64) {
			cfg.Policy = "DRR2-TTL/S_K"
			cfg.HeterogeneityPct = 35
			cfg.Faults = sim.Outage(0, cfg.Warmup+outageStart, outageLen)
			d := det(x)
			cfg.Detection = &d
		}}
	}
	return sweep{
		id: "ext-probes", title: "Crash detection latency: active probes vs missed reports",
		xlabel: "Probe interval (s)",
		ylabel: "Mean crash-to-exclusion delay (s)",
		xs:     []float64{2, 5, 10, 30, 60},
		lines: []line{
			detector("active probes (fail-3)", func(x float64) sim.DetectionConfig {
				return sim.DetectionConfig{Kind: sim.DetectProbe, Interval: x, FailN: 3, RiseM: 2}
			}),
			detector("missed reports (k=3, 60 s interval)", func(float64) sim.DetectionConfig {
				return sim.DetectionConfig{Kind: sim.DetectReport, Interval: 60, K: 3}
			}),
		},
		reads: []reading{{"", func(_ *sim.Config, r *sim.Result) (float64, error) {
			// A zero mean would read as instant knowledge.
			if r.DetectedCrashes == 0 {
				return 0, errors.New("the crash was not detected before the run ended")
			}
			return r.MeanDetectionDelay, nil
		}}},
	}.run(o)
}
