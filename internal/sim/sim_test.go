package sim

import (
	"math"
	"testing"
)

// quickCfg returns a config scaled down for fast unit tests: one
// simulated hour instead of five.
func quickCfg(policy string) Config {
	cfg := DefaultConfig(policy)
	cfg.Duration = 3600
	return cfg
}

func TestDefaultConfigIsValid(t *testing.T) {
	if err := DefaultConfig("RR").Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bad workload", func(c *Config) { c.Workload.Domains = 0 }},
		{"zero servers", func(c *Config) { c.Servers = 0 }},
		{"heterogeneity 100", func(c *Config) { c.HeterogeneityPct = 100 }},
		{"negative heterogeneity", func(c *Config) { c.HeterogeneityPct = -1 }},
		{"zero capacity", func(c *Config) { c.TotalCapacity = 0 }},
		{"empty policy", func(c *Config) { c.Policy = "" }},
		{"zero constant TTL", func(c *Config) { c.ConstantTTL = 0 }},
		{"negative min NS TTL", func(c *Config) { c.MinNSTTL = -1 }},
		{"zero interval", func(c *Config) { c.UtilizationInterval = 0 }},
		{"alarm threshold > 1", func(c *Config) { c.AlarmThreshold = 1.5 }},
		{"metric window below interval", func(c *Config) { c.MetricWindow = 4 }},
		{"metric window not multiple", func(c *Config) { c.MetricWindow = 20 }},
		{"estimator interval", func(c *Config) { c.OracleWeights = false; c.EstimatorInterval = 0 }},
		{"zero duration", func(c *Config) { c.Duration = 0 }},
		{"negative warmup", func(c *Config) { c.Warmup = -1 }},
		// NaN passes every ordered comparison, and an infinite duration
		// or interval never ends: each is refused.
		{"NaN duration", func(c *Config) { c.Duration = math.NaN() }},
		{"infinite duration", func(c *Config) { c.Duration = math.Inf(1) }},
		{"NaN warmup", func(c *Config) { c.Warmup = math.NaN() }},
		{"infinite warmup", func(c *Config) { c.Warmup = math.Inf(1) }},
		{"NaN capacity", func(c *Config) { c.TotalCapacity = math.NaN() }},
		{"infinite capacity", func(c *Config) { c.TotalCapacity = math.Inf(1) }},
		{"NaN constant TTL", func(c *Config) { c.ConstantTTL = math.NaN() }},
		{"NaN min NS TTL", func(c *Config) { c.MinNSTTL = math.NaN() }},
		{"infinite min NS TTL", func(c *Config) { c.MinNSTTL = math.Inf(1) }},
		{"NaN interval", func(c *Config) { c.UtilizationInterval = math.NaN() }},
		{"infinite interval", func(c *Config) { c.UtilizationInterval = math.Inf(1) }},
		{"NaN alarm threshold", func(c *Config) { c.AlarmThreshold = math.NaN() }},
		{"NaN metric window", func(c *Config) { c.MetricWindow = math.NaN() }},
		{"infinite metric window", func(c *Config) { c.MetricWindow = math.Inf(1) }},
		{"NaN estimator interval", func(c *Config) { c.OracleWeights = false; c.EstimatorInterval = math.NaN() }},
		{"NaN geo preference", func(c *Config) { c.GeoPreference = math.NaN() }},
		{"NaN report loss", func(c *Config) { c.ReportLossProb = math.NaN() }},
		{"NaN fault time", func(c *Config) { c.Faults = Outage(0, math.NaN(), 60) }},
		{"infinite drain time", func(c *Config) { c.Drains = []DrainEvent{{Time: math.Inf(1)}} }},
		{"NaN flash time", func(c *Config) {
			c.FlashCrowds = []FlashEvent{{Time: math.NaN(), Clients: 1, Resolvers: 1, Duration: 60}}
		}},
		{"infinite flash duration", func(c *Config) {
			c.FlashCrowds = []FlashEvent{{Time: 60, Clients: 1, Resolvers: 1, Duration: math.Inf(1)}}
		}},
		{"NaN replication interval", func(c *Config) { c.Replicas = 2; c.ReplicationInterval = math.NaN() }},
		{"NaN replica lag", func(c *Config) { c.Replicas = 2; c.ReplicationInterval = 8; c.ReplicaLag = math.NaN() }},
		{"infinite partition end", func(c *Config) {
			c.Replicas = 2
			c.ReplicationInterval = 8
			c.Partitions = []PartitionEvent{{Start: 60, End: math.Inf(1)}}
		}},
		{"NaN detection interval", func(c *Config) {
			c.Detection = &DetectionConfig{Kind: DetectReport, K: 2, Interval: math.NaN()}
		}},
		{"NaN ECS misalignment", func(c *Config) { c.ECSMisalign = &ECSMisalignConfig{Fraction: math.NaN()} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig("RR")
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestRunUnknownPolicy(t *testing.T) {
	cfg := quickCfg("bogus")
	if _, err := Run(cfg); err == nil {
		t.Error("unknown policy should error")
	}
}

func TestRunBasicInvariants(t *testing.T) {
	cfg := quickCfg("RR")
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantWindows := int(cfg.Duration / cfg.MetricWindow)
	if got := len(r.MaxUtil.Values()); got < wantWindows-2 || got > wantWindows+2 {
		t.Errorf("metric windows = %d, want ≈ %d", got, wantWindows)
	}
	// System-wide mean utilization ≈ 2/3 (paper Table 1).
	var mean float64
	for _, u := range r.MeanServerUtil {
		mean += u
	}
	mean /= float64(len(r.MeanServerUtil))
	if math.Abs(mean-2.0/3) > 0.05 {
		t.Errorf("mean utilization = %v, want ≈ 2/3", mean)
	}
	if r.AddressRequests == 0 {
		t.Error("no address requests reached the DNS")
	}
	if r.CacheHits == 0 {
		t.Error("NS caches never hit")
	}
	if r.TotalHits == 0 || r.TotalPages == 0 {
		t.Error("no traffic served")
	}
	// DNS controls only a small fraction of the page requests.
	if f := r.ControlledFraction(); f <= 0 || f > 0.04 {
		t.Errorf("controlled fraction = %v, want small (paper: below 4%%)", f)
	}
	if r.Sched.Decisions != r.AddressRequests {
		t.Errorf("scheduler decisions %d != address requests %d", r.Sched.Decisions, r.AddressRequests)
	}
}

func TestRunDeterministicReplay(t *testing.T) {
	cfg := quickCfg("DRR2-TTL/S_K")
	cfg.Duration = 1800
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.AddressRequests != b.AddressRequests || a.TotalHits != b.TotalHits ||
		a.EventsFired != b.EventsFired {
		t.Errorf("same seed, different history: %+v vs %+v", a, b)
	}
	if a.ProbMaxUnder(0.9) != b.ProbMaxUnder(0.9) {
		t.Error("same seed, different metric")
	}
	cfg.Seed = 999
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalHits == c.TotalHits && a.AddressRequests == c.AddressRequests {
		t.Error("different seeds produced identical runs")
	}
}

func TestAdaptiveBeatsRR(t *testing.T) {
	// The paper's central claim at the default heterogeneity.
	rr, err := Run(quickCfg("RR"))
	if err != nil {
		t.Fatal(err)
	}
	best, err := Run(quickCfg("DRR2-TTL/S_K"))
	if err != nil {
		t.Fatal(err)
	}
	if best.ProbMaxUnder(0.9) <= rr.ProbMaxUnder(0.9)+0.3 {
		t.Errorf("DRR2-TTL/S_K P(<0.9)=%v should far exceed RR %v",
			best.ProbMaxUnder(0.9), rr.ProbMaxUnder(0.9))
	}
}

func TestIdealEnvelope(t *testing.T) {
	// DRR2-TTL/S_K must land close to the Ideal envelope (PRR under a
	// uniform client distribution), the paper's Figure 1 observation.
	ideal := quickCfg("Ideal")
	ideal.Workload.Uniform = true
	ri, err := Run(ideal)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(quickCfg("DRR2-TTL/S_K"))
	if err != nil {
		t.Fatal(err)
	}
	di := ri.ProbMaxUnder(0.9)
	db := rb.ProbMaxUnder(0.9)
	if math.Abs(di-db) > 0.1 {
		t.Errorf("DRR2-TTL/S_K %v not close to Ideal %v", db, di)
	}
}

func TestCalibratedAddressRates(t *testing.T) {
	// The paper chose TTL values so that each policy's average address
	// request rate matches the constant-TTL baseline. Verify in vivo.
	base, err := Run(quickCfg("RR"))
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"DRR2-TTL/S_K", "PRR2-TTL/K", "DRR2-TTL/S_2", "PRR2-TTL/2"} {
		r, err := Run(quickCfg(pol))
		if err != nil {
			t.Fatal(err)
		}
		ratio := r.AddressRate() / base.AddressRate()
		if ratio < 0.7 || ratio > 1.4 {
			t.Errorf("%s address rate ratio vs constant TTL = %v, want ≈ 1", pol, ratio)
		}
	}
}

func TestNonCooperativeNSRaisesTTLs(t *testing.T) {
	cfg := quickCfg("DRR2-TTL/S_K")
	cfg.MinNSTTL = 300
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.ClampedTTLs == 0 {
		t.Error("min TTL 300 should clamp some adaptive TTLs")
	}
	// Fewer DNS requests when NSes cache longer.
	coop, err := Run(quickCfg("DRR2-TTL/S_K"))
	if err != nil {
		t.Fatal(err)
	}
	if r.AddressRequests >= coop.AddressRequests {
		t.Errorf("clamped run made %d address requests, cooperative %d; want fewer",
			r.AddressRequests, coop.AddressRequests)
	}
}

func TestDynamicEstimatorRun(t *testing.T) {
	cfg := quickCfg("DRR2-TTL/S_K")
	cfg.OracleWeights = false
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The dynamic estimator should get close to oracle performance.
	oracle, err := Run(quickCfg("DRR2-TTL/S_K"))
	if err != nil {
		t.Fatal(err)
	}
	if r.ProbMaxUnder(0.98) < oracle.ProbMaxUnder(0.98)-0.15 {
		t.Errorf("estimator-driven P(<0.98)=%v far below oracle %v",
			r.ProbMaxUnder(0.98), oracle.ProbMaxUnder(0.98))
	}
}

func TestPerturbationDegradesTwoClassSchemes(t *testing.T) {
	// Figures 6–7: estimation error hurts TTL/2 more than TTL/K.
	mk := func(pol string, errPct float64) float64 {
		cfg := quickCfg(pol)
		cfg.HeterogeneityPct = 50
		cfg.Workload.PerturbationPct = errPct
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.ProbMaxUnder(0.98)
	}
	kClean := mk("DRR2-TTL/S_K", 0)
	kErr := mk("DRR2-TTL/S_K", 40)
	if kClean-kErr > 0.2 {
		t.Errorf("TTL/S_K degraded from %v to %v under 40%% error; paper says it is robust", kClean, kErr)
	}
}

func TestAlarmsFire(t *testing.T) {
	r, err := Run(quickCfg("RR"))
	if err != nil {
		t.Fatal(err)
	}
	if r.AlarmSignals == 0 {
		t.Error("RR under heterogeneous load should trigger alarm signals")
	}
}

func TestRunReplications(t *testing.T) {
	cfg := quickCfg("RR")
	cfg.Duration = 900
	results, err := RunReplications(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	// Distinct seeds → distinct runs.
	if results[0].TotalHits == results[1].TotalHits && results[1].TotalHits == results[2].TotalHits {
		t.Error("replications look identical")
	}
	iv := ProbMaxUnderCI(results, 0.98, 0.95)
	if iv.Mean < 0 || iv.Mean > 1 {
		t.Errorf("CI mean %v out of range", iv.Mean)
	}
	if _, err := RunReplications(cfg, 0); err == nil {
		t.Error("zero reps should error")
	}
}

func TestAllPoliciesRunToCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("long: runs every policy")
	}
	for _, pol := range []string{
		"RR", "RR2", "DAL",
		"PRR-TTL/1", "PRR-TTL/2", "PRR-TTL/K",
		"PRR2-TTL/1", "PRR2-TTL/2", "PRR2-TTL/K",
		"DRR-TTL/S_1", "DRR-TTL/S_2", "DRR-TTL/S_K",
		"DRR2-TTL/S_1", "DRR2-TTL/S_2", "DRR2-TTL/S_K",
	} {
		cfg := quickCfg(pol)
		cfg.Duration = 900
		r, err := Run(cfg)
		if err != nil {
			t.Errorf("%s: %v", pol, err)
			continue
		}
		if len(r.MaxUtil.Values()) == 0 {
			t.Errorf("%s: no metric windows", pol)
		}
	}
}

func TestResponseTimeMetric(t *testing.T) {
	rr, err := Run(quickCfg("RR"))
	if err != nil {
		t.Fatal(err)
	}
	best, err := Run(quickCfg("DRR2-TTL/S_K"))
	if err != nil {
		t.Fatal(err)
	}
	if rr.MeanResponseTime <= 0 || best.MeanResponseTime <= 0 {
		t.Fatal("response times should be positive")
	}
	if rr.MaxResponseTime < rr.MeanResponseTime {
		t.Error("max response below mean")
	}
	// Better balancing means less queueing: the adaptive policy's mean
	// response time must beat RR's.
	if best.MeanResponseTime >= rr.MeanResponseTime {
		t.Errorf("DRR2-TTL/S_K mean response %v should beat RR %v",
			best.MeanResponseTime, rr.MeanResponseTime)
	}
}

func TestGeoExtension(t *testing.T) {
	base := quickCfg("DRR2-TTL/S_K")
	base.HeterogeneityPct = 35
	run := func(pref float64) *Result {
		cfg := base
		cfg.GeoPreference = pref
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// Tiny preference ≈ paper behaviour, but the latency metric is on.
	loadFirst := run(1e-9)
	geoFirst := run(1)
	if loadFirst.MeanLatencyMS <= 0 || geoFirst.MeanLatencyMS <= 0 {
		t.Fatal("latency metric missing")
	}
	// Pure proximity gives lower latency but worse balance.
	if geoFirst.MeanLatencyMS >= loadFirst.MeanLatencyMS {
		t.Errorf("geo-first latency %v should beat load-first %v",
			geoFirst.MeanLatencyMS, loadFirst.MeanLatencyMS)
	}
	if geoFirst.ProbMaxUnder(0.98) >= loadFirst.ProbMaxUnder(0.98) {
		t.Errorf("geo-first balance %v should be worse than load-first %v",
			geoFirst.ProbMaxUnder(0.98), loadFirst.ProbMaxUnder(0.98))
	}
	// Without the extension the metric stays zero.
	off, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if off.MeanLatencyMS != 0 {
		t.Errorf("latency metric = %v with geo off, want 0", off.MeanLatencyMS)
	}
}

func TestGeoConfigValidation(t *testing.T) {
	cfg := quickCfg("RR")
	cfg.GeoPreference = 2
	if _, err := Run(cfg); err == nil {
		t.Error("GeoPreference > 1 should error")
	}
}
