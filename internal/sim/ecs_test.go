package sim

import (
	"net/netip"
	"testing"
)

func TestECSDomainAddressing(t *testing.T) {
	mapper := ecsDomainMapper(300)
	for _, d := range []int{0, 1, 99, 255, 256, 299} {
		if got := mapper(ecsDomainAddr(d)); got != d {
			t.Errorf("mapper(resolver of %d) = %d", d, got)
		}
		if got := mapper(ecsDomainPrefix(d).Addr()); got != d {
			t.Errorf("mapper(subnet of %d) = %d", d, got)
		}
	}
	if !ecsDomainPrefix(7).Contains(netip.AddrFrom4([4]byte{10, 0, 7, 200})) {
		t.Error("domain 7's /24 should contain its client hosts")
	}
	if got := mapper(netip.Addr{}); got != 0 {
		t.Errorf("mapper(invalid) = %d, want 0", got)
	}
}

func TestECSMisalignValidation(t *testing.T) {
	cfg := quickCfg("RR")
	cfg.ECSMisalign = &ECSMisalignConfig{Fraction: 1.5}
	if err := cfg.Validate(); err == nil {
		t.Error("Fraction > 1 should error")
	}
	cfg.ECSMisalign = &ECSMisalignConfig{Fraction: 0.5, Shift: cfg.Workload.Domains}
	if err := cfg.Validate(); err == nil {
		t.Error("Shift >= Domains should error")
	}
}

// TestECSMisalignment is the misalignment experiment: under a
// proximity-first policy, misaligned resolvers without ECS misroute
// the affected domains' traffic to far servers; forwarding the
// clients' true subnet restores the aligned latency.
func TestECSMisalignment(t *testing.T) {
	base := quickCfg("DRR2-TTL/S_K")
	base.GeoPreference = 1 // proximity-first: latency exposes misrouting
	run := func(mis *ECSMisalignConfig) *Result {
		cfg := base
		cfg.ECSMisalign = mis
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	aligned := run(&ECSMisalignConfig{Fraction: 0})
	misNoECS := run(&ECSMisalignConfig{Fraction: 0.5})
	misECS := run(&ECSMisalignConfig{Fraction: 0.5, UseECS: true})

	if aligned.ECSQueries == 0 || misNoECS.ECSQueries == 0 || misECS.ECSQueries == 0 {
		t.Fatal("resolver population model made no decisions")
	}
	// Classification ground truth: without misalignment or with ECS the
	// engine always recovers the clients' true domain; misaligned
	// resolvers without ECS never do for the affected half.
	if aligned.ECSMisrouted != 0 {
		t.Errorf("aligned run misrouted %d decisions", aligned.ECSMisrouted)
	}
	if misECS.ECSMisrouted != 0 {
		t.Errorf("ECS run misrouted %d decisions, want 0", misECS.ECSMisrouted)
	}
	if misNoECS.ECSMisrouted == 0 {
		t.Error("misaligned run without ECS should misroute")
	}
	if misECS.ECSCarried != misECS.ECSQueries {
		t.Errorf("ECS run carried the option on %d/%d queries", misECS.ECSCarried, misECS.ECSQueries)
	}
	if misNoECS.ECSCarried != 0 {
		t.Errorf("no-ECS run carried the option on %d queries", misNoECS.ECSCarried)
	}
	// Latency consequence: misrouted proximity decisions aim at servers
	// near the resolver, not the clients, so the traffic-weighted
	// client latency degrades; ECS repairs it back to aligned levels.
	if misNoECS.MeanLatencyMS <= aligned.MeanLatencyMS {
		t.Errorf("misaligned latency %v should exceed aligned %v",
			misNoECS.MeanLatencyMS, aligned.MeanLatencyMS)
	}
	if misECS.MeanLatencyMS >= misNoECS.MeanLatencyMS {
		t.Errorf("ECS latency %v should beat misaligned %v",
			misECS.MeanLatencyMS, misNoECS.MeanLatencyMS)
	}
}

// TestECSMisalignOffIsByteIdentical locks the no-extension guarantee:
// a nil ECSMisalign leaves the decision stream untouched, so the run's
// fingerprint-relevant counters match a plain run exactly.
func TestECSMisalignOffIsByteIdentical(t *testing.T) {
	cfg := quickCfg("DRR2-TTL/S_K")
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.AddressRequests != again.AddressRequests || plain.TotalHits != again.TotalHits ||
		plain.EventsFired != again.EventsFired {
		t.Fatal("identical configs diverged")
	}
	if plain.ECSQueries != 0 || plain.ECSMisrouted != 0 || plain.ECSCarried != 0 {
		t.Error("ECS counters must stay zero without the extension")
	}
}
