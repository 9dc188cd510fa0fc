package dnslb_test

import (
	"context"
	"math"
	"net/netip"
	"testing"
	"time"

	"dnslb"
)

func TestFacadeSimulation(t *testing.T) {
	cfg := dnslb.DefaultSimConfig("DRR2-TTL/S_K")
	cfg.Duration = 1800
	res, err := dnslb.RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p := res.ProbMaxUnder(0.98); p <= 0 || p > 1 {
		t.Errorf("ProbMaxUnder = %v", p)
	}
}

func TestFacadePolicyCatalog(t *testing.T) {
	names := dnslb.PolicyNames()
	if len(names) == 0 {
		t.Fatal("no policies")
	}
	cluster, err := dnslb.ScaledCluster(7, 35, 500)
	if err != nil {
		t.Fatal(err)
	}
	state, err := dnslb.NewState(cluster, 20)
	if err != nil {
		t.Fatal(err)
	}
	p, err := dnslb.NewPolicy(dnslb.PolicyConfig{Name: "RR", State: state})
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Schedule(0)
	if err != nil {
		t.Fatal(err)
	}
	if d.TTL != dnslb.DefaultConstantTTL {
		t.Errorf("TTL = %v, want %v", d.TTL, dnslb.DefaultConstantTTL)
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	ids := dnslb.ExperimentIDs()
	if len(ids) < 8 {
		t.Fatalf("experiments = %v", ids)
	}
	fig, err := dnslb.Experiments["table2"](dnslb.DefaultExperimentOptions())
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "table2" {
		t.Errorf("figure ID = %q", fig.ID)
	}
}

func TestFacadeRealDNSRoundTrip(t *testing.T) {
	cluster, err := dnslb.ScaledCluster(3, 35, 300)
	if err != nil {
		t.Fatal(err)
	}
	state, err := dnslb.NewState(cluster, 4)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := dnslb.NewPolicy(dnslb.PolicyConfig{Name: "RR", State: state})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dnslb.NewDNSServer(dnslb.DNSServerConfig{
		Zone: "www.demo.test",
		ServerAddrs: []netip.Addr{
			netip.MustParseAddr("10.0.0.1"),
			netip.MustParseAddr("10.0.0.2"),
			netip.MustParseAddr("10.0.0.3"),
		},
		Policy: policy,
		Addr:   "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resolver := &dnslb.Resolver{Server: srv.Addr().String(), Timeout: 2 * time.Second}
	ns := dnslb.NewCachingNS(resolver, 0)
	answers, fromCache, err := ns.LookupA(context.Background(), "www.demo.test")
	if err != nil {
		t.Fatal(err)
	}
	if fromCache || len(answers) != 1 {
		t.Fatalf("answers = %+v (cache %v)", answers, fromCache)
	}
	if math.Abs(answers[0].TTL.Seconds()-dnslb.DefaultConstantTTL) > 1 {
		t.Errorf("TTL = %v, want the constant %v s", answers[0].TTL, dnslb.DefaultConstantTTL)
	}
	// Second lookup is served by the NS cache.
	_, fromCache, err = ns.LookupA(context.Background(), "www.demo.test")
	if err != nil || !fromCache {
		t.Errorf("cache hit expected (err %v)", err)
	}
}
