package simload

import (
	"reflect"
	"testing"

	"dnslb/internal/sim"
)

// The batch may set only the six fields the benchmark is allowed to
// touch; everything else must stay sim.DefaultConfig.
func TestConfigsTouchOnlyAllowedFields(t *testing.T) {
	allowed := map[string]bool{"Policy": true, "Seed": true, "OracleWeights": true,
		"Estimator": true, "Replicas": true, "ReplicationInterval": true}
	cfgs := Configs(9)
	if len(cfgs) != len(Policies)+3 {
		t.Fatalf("%d configs, want %d", len(cfgs), len(Policies)+3)
	}
	for _, c := range cfgs {
		def := reflect.ValueOf(sim.DefaultConfig(c.Policy))
		got := reflect.ValueOf(c)
		for i := 0; i < got.NumField(); i++ {
			name := got.Type().Field(i).Name
			if allowed[name] || name == "DecisionTap" {
				continue
			}
			if !reflect.DeepEqual(got.Field(i).Interface(), def.Field(i).Interface()) {
				t.Errorf("%s: field %s differs from sim.DefaultConfig", c.Policy, name)
			}
		}
	}
}

func TestRoundHoldsItsInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ten simulations at the paper's scale")
	}
	rd := RunRound(5)
	if rd.Failed != 0 || rd.Runs != len(Policies)+4 || rd.Events == 0 {
		t.Errorf("round: %d runs, %d failed, %d events: %v", rd.Runs, rd.Failed, rd.Events, rd.Errors)
	}
}
