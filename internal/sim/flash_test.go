package sim

import (
	"testing"

	"dnslb/internal/core"
)

func flashCfg(estimator string) Config {
	cfg := quickCfg("DRR2-TTL/S_K")
	cfg.OracleWeights = false
	cfg.Estimator = estimator
	cfg.FlashCrowds = []FlashEvent{{Time: 1800, Domain: 0, Clients: 300, Resolvers: 40, Duration: 900}}
	return cfg
}

func TestFlashConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"unknown estimator kind", func(c *Config) { c.Estimator = "oracle" }},
		{"negative flash time", func(c *Config) { c.FlashCrowds[0].Time = -1 }},
		{"flash domain out of range", func(c *Config) { c.FlashCrowds[0].Domain = c.Workload.Domains }},
		{"flash needs clients", func(c *Config) { c.FlashCrowds[0].Clients = 0 }},
		{"flash needs resolvers", func(c *Config) { c.FlashCrowds[0].Resolvers = 0 }},
		{"flash needs duration", func(c *Config) { c.FlashCrowds[0].Duration = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := flashCfg(core.EstimatorReactive)
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestFlashCrowdInjectsTraffic(t *testing.T) {
	base := quickCfg("DRR2-TTL/S_K")
	base.OracleWeights = false
	base.Estimator = core.EstimatorReactive
	quiet, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	flashed, err := Run(flashCfg(core.EstimatorReactive))
	if err != nil {
		t.Fatal(err)
	}
	if flashed.TotalHits <= quiet.TotalHits {
		t.Errorf("flash crowd added no hits: %d vs %d", flashed.TotalHits, quiet.TotalHits)
	}
	// Fresh resolver caches must reach the DNS: a flash crowd is
	// visible in the decision stream, not only in the hit stream.
	if flashed.AddressRequests <= quiet.AddressRequests {
		t.Errorf("flash crowd added no address requests: %d vs %d",
			flashed.AddressRequests, quiet.AddressRequests)
	}

	// Same seed, same flash schedule → identical history.
	again, err := Run(flashCfg(core.EstimatorReactive))
	if err != nil {
		t.Fatal(err)
	}
	if again.TotalHits != flashed.TotalHits || again.AddressRequests != flashed.AddressRequests ||
		again.EventsFired != flashed.EventsFired {
		t.Error("flash-crowd run is not deterministic under a fixed seed")
	}
}

// TestPredictiveAlarmLeadsReactive is the extension's core claim at
// sim scale: on a flash crowd arriving through fresh resolver caches,
// the predictive estimator's demand alarm fires at least one
// collection interval before the reactive estimator's, because the
// forecast moves on the decision burst while the reactive EWMA waits
// for the next report roll.
func TestPredictiveAlarmLeadsReactive(t *testing.T) {
	reactive, err := Run(flashCfg(core.EstimatorReactive))
	if err != nil {
		t.Fatal(err)
	}
	predictive, err := Run(flashCfg(core.EstimatorPredictive))
	if err != nil {
		t.Fatal(err)
	}
	if reactive.EstimatorAlarmTime == 0 {
		t.Fatal("flash crowd never pushed reactive demand over the alarm threshold; scenario too weak")
	}
	if predictive.EstimatorAlarmTime == 0 {
		t.Fatal("predictive estimator never alarmed on the flash crowd")
	}
	cfg := flashCfg("")
	lead := reactive.EstimatorAlarmTime - predictive.EstimatorAlarmTime
	if lead < cfg.EstimatorInterval {
		t.Errorf("predictive alarm at %vs, reactive at %vs: lead %vs below one collection interval (%vs)",
			predictive.EstimatorAlarmTime, reactive.EstimatorAlarmTime, lead, cfg.EstimatorInterval)
	}
	// Both alarms react to the flash, not to steady-state noise.
	onset := cfg.FlashCrowds[0].Time
	if predictive.EstimatorAlarmTime < onset {
		t.Errorf("predictive alarm at %vs precedes the flash onset at %vs", predictive.EstimatorAlarmTime, onset)
	}
	// The forecast must stay honest: its tracked absolute error is
	// bounded by the cluster's total capacity (a wildly diverging
	// forecast would alarm early for the wrong reason).
	if predictive.ForecastAbsError <= 0 || predictive.ForecastAbsError > cfg.TotalCapacity {
		t.Errorf("forecast abs error = %v hits/s, want within (0, %v]",
			predictive.ForecastAbsError, cfg.TotalCapacity)
	}
}
