package sim

import (
	"fmt"
	"reflect"
	"testing"

	"dnslb/internal/core"
)

// Metamorphic relations: what a run must do, stated once, where a golden
// only freezes what it did.

// timeScaled returns cfg with every time in it multiplied by k and the
// total capacity divided by k.
func timeScaled(cfg Config, k float64) Config {
	c := cfg
	c.Workload.MeanThinkTime *= k
	c.TotalCapacity /= k
	c.ConstantTTL *= k
	c.MinNSTTL *= k
	c.UtilizationInterval *= k
	c.MetricWindow *= k
	c.EstimatorInterval *= k
	c.ReplicationInterval *= k
	c.ReplicaLag *= k
	c.Duration *= k
	c.Warmup *= k
	c.FlashCrowds = append([]FlashEvent(nil), cfg.FlashCrowds...)
	for i := range c.FlashCrowds {
		c.FlashCrowds[i].Time *= k
		c.FlashCrowds[i].Duration *= k
	}
	c.Faults = append([]FaultEvent(nil), cfg.Faults...)
	for i := range c.Faults {
		c.Faults[i].Time *= k
	}
	c.Drains = append([]DrainEvent(nil), cfg.Drains...)
	for i := range c.Drains {
		c.Drains[i].Time *= k
	}
	c.Partitions = append([]PartitionEvent(nil), cfg.Partitions...)
	for i := range c.Partitions {
		c.Partitions[i].Start *= k
		c.Partitions[i].End *= k
	}
	if cfg.Detection != nil {
		d := *cfg.Detection
		d.Interval *= k
		c.Detection = &d
	}
	return c
}

// scaleFree names the float fields of a Config that are not times: a new
// field is either one of these or scaled by timeScaled.
var scaleFree = map[string]bool{
	"Workload.ZipfTheta": true, "Workload.PagesPerSession": true, "Workload.PerturbationPct": true,
	"AlarmThreshold": true, "ReportLossProb": true, "GeoPreference": true, "ECSMisalign.Fraction": true,
}

// TestTimeScaledCoversEveryField: timeScaled scales every float of a
// Config with one of each event set to 1 by k, TotalCapacity by 1/k,
// and leaves only scaleFree alone.
func TestTimeScaledCoversEveryField(t *testing.T) {
	var cfg Config
	cfg.FlashCrowds, cfg.Faults = make([]FlashEvent, 1), make([]FaultEvent, 1)
	cfg.Drains, cfg.Partitions = make([]DrainEvent, 1), make([]PartitionEvent, 1)
	cfg.Detection, cfg.ECSMisalign = &DetectionConfig{}, &ECSMisalignConfig{}
	var walk func(v reflect.Value, path string, visit func(f reflect.Value, path string))
	walk = func(v reflect.Value, path string, visit func(reflect.Value, string)) {
		switch v.Kind() {
		case reflect.Float64:
			visit(v, path)
		case reflect.Pointer:
			if !v.IsNil() {
				walk(v.Elem(), path, visit)
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), path, visit)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				name := v.Type().Field(i).Name
				if path != "" {
					name = path + "." + name
				}
				walk(v.Field(i), name, visit)
			}
		}
	}
	walk(reflect.ValueOf(&cfg).Elem(), "", func(f reflect.Value, _ string) { f.SetFloat(1) })
	scaled := timeScaled(cfg, 2)
	var got []float64
	walk(reflect.ValueOf(scaled), "", func(f reflect.Value, _ string) { got = append(got, f.Float()) })
	i := 0
	walk(reflect.ValueOf(cfg), "", func(_ reflect.Value, path string) {
		want := 2.0
		switch {
		case path == "TotalCapacity":
			want = 0.5
		case scaleFree[path]:
			want = 1
		}
		if got[i] != want {
			t.Errorf("%s scaled by %v, want %v: a time field timeScaled misses, or a scale-free one it does not list", path, got[i], want)
		}
		i++
	})
}

// tappedDecision is one decision as DecisionTap saw it.
type tappedDecision struct {
	domain int
	core.Decision
}

// runTapped runs cfg and returns its decision stream with the result.
func runTapped(t *testing.T, cfg Config) ([]tappedDecision, *Result) {
	t.Helper()
	var ds []tappedDecision
	cfg.DecisionTap = func(domain int, d core.Decision) { ds = append(ds, tappedDecision{domain, d}) }
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds, res
}

// scaleDiff reports the first place the scaled run breaks the relation
// with the base run, "" when it holds: the same decisions with every TTL
// times k, and the same utilization metric and counts.
func scaleDiff(base, scaled []tappedDecision, rb, rs *Result, k float64) string {
	if len(base) != len(scaled) {
		return fmt.Sprintf("%d decisions, scaled %d", len(base), len(scaled))
	}
	for i, b := range base {
		s := scaled[i]
		if s.domain != b.domain || s.Server != b.Server || s.TTL != b.TTL*k {
			return fmt.Sprintf("decision %d of %d: %+v, scaled %+v", i, len(base), b, s)
		}
	}
	if !reflect.DeepEqual(rb.MaxUtil.Values(), rs.MaxUtil.Values()) || !reflect.DeepEqual(rb.MeanServerUtil, rs.MeanServerUtil) {
		return "utilization metric differs"
	}
	if rb.TotalHits != rs.TotalHits || rb.TotalPages != rs.TotalPages || rb.CacheHits != rs.CacheHits ||
		rb.AlarmSignals != rs.AlarmSignals || rb.DeadServerHits != rs.DeadServerHits || rb.LostReports != rs.LostReports {
		return "counts differ"
	}
	return ""
}

// TestTimeScaleRelation: the model has no absolute time scale. Scaling
// every time of a run by k and the capacity by 1/k gives, for k = 2 and
// ½, the same decisions bit for bit with every TTL times k, and the same
// utilization metric. The one exception is flashRampSeconds, a fixed
// 10 s: a flash crowd shorter than the ramp at every k keeps the
// relation, and one longer breaks it (the last subtest).
func TestTimeScaleRelation(t *testing.T) {
	base := func(policy string, oracle bool) Config {
		cfg := DefaultConfig(policy)
		cfg.Duration, cfg.Warmup = 1200, 120
		cfg.OracleWeights = oracle
		return cfg
	}
	axes := []struct {
		name  string
		apply func(*Config)
	}{
		{"plain", func(*Config) {}},
		{"faults", func(c *Config) {
			c.Faults = Outage(1, 300, 200)
			c.Detection = &DetectionConfig{Kind: DetectProbe, Interval: 2, FailN: 3, RiseM: 2}
			c.ReportLossProb = 0.2
		}},
		{"drain", func(c *Config) { c.Drains = []DrainEvent{{Time: 400, Server: 5}} }},
		{"replicas", func(c *Config) {
			c.Replicas, c.ReplicationInterval, c.ReplicaLag = 2, 4, 1
			c.Partitions = []PartitionEvent{{Start: 500, End: 600}}
			c.Faults = Outage(2, 350, 300)
		}},
		{"short-flash", func(c *Config) {
			c.FlashCrowds = []FlashEvent{{Time: 500, Domain: 1, Clients: 100, Resolvers: 10, Duration: flashRampSeconds / 4}}
			c.Estimator, c.MinNSTTL = core.EstimatorPredictive, 60
		}},
	}
	for _, policy := range []string{"RR", "PRR2-TTL/K", "DRR2-TTL/S_K"} {
		for _, oracle := range []bool{true, false} {
			for _, ax := range axes {
				name := policy + "/estimator"
				if oracle {
					name = policy + "/oracle"
				}
				t.Run(name+"/"+ax.name, func(t *testing.T) {
					cfg := base(policy, oracle)
					ax.apply(&cfg)
					ds, res := runTapped(t, cfg)
					if len(ds) == 0 {
						t.Fatal("no decisions")
					}
					for _, k := range []float64{2, 0.5} {
						sds, sres := runTapped(t, timeScaled(cfg, k))
						if diff := scaleDiff(ds, sds, res, sres, k); diff != "" {
							t.Errorf("k = %v: %s", k, diff)
						}
					}
				})
			}
		}
	}
	t.Run("flash-longer-than-ramp", func(t *testing.T) {
		cfg := base("DRR2-TTL/S_K", true)
		cfg.FlashCrowds = []FlashEvent{{Time: 500, Domain: 1, Clients: 100, Resolvers: 10, Duration: 300}}
		ds, res := runTapped(t, cfg)
		sds, sres := runTapped(t, timeScaled(cfg, 2))
		if scaleDiff(ds, sds, res, sres, 2) == "" {
			t.Error("the relation holds across a crowd longer than flashRampSeconds: the ramp now scales, so drop this exception")
		}
	})
}
