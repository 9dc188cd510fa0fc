package engine

import (
	"net/netip"
	"testing"

	"dnslb/internal/core"
	"dnslb/internal/simcore"
)

const benchDomains = 20

// benchEngine assembles the live server's default decision path — 7
// heterogeneous servers, 20 domains, DRR2-TTL/S_K — over a manual clock
// with the given estimator kind, and returns its i-th query: the clock
// advances 50 µs (20 k qps) and the query carries domain i's client /24.
func benchEngine(tb testing.TB, kind string) func(i int) QueryDecision {
	tb.Helper()
	clock := &ManualClock{}
	cluster, err := core.NewCluster([]float64{150, 130, 110, 100, 90, 70, 50})
	if err != nil {
		tb.Fatal(err)
	}
	state, err := core.NewState(cluster, benchDomains)
	if err != nil {
		tb.Fatal(err)
	}
	pol, err := core.NewPolicy(core.PolicyConfig{
		Name: "DRR2-TTL/S_K", State: state, Rand: simcore.NewStream(1, "bench"), Now: clock.Now,
	})
	if err != nil {
		tb.Fatal(err)
	}
	est, err := core.NewLoadEstimator(kind, benchDomains, core.DefaultEstimatorAlpha)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := New(Config{
		Policy: pol, Clock: clock, Estimator: est,
		Mapper: func(a netip.Addr) int { return int(a.As4()[2]) % benchDomains },
	})
	if err != nil {
		tb.Fatal(err)
	}
	resolver := netip.MustParseAddr("127.0.0.1")
	subnets := make([]netip.Prefix, benchDomains)
	for d := range subnets {
		subnets[d] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(d), 0}), 24)
	}
	return func(i int) QueryDecision {
		clock.Set(float64(i) * 50e-6)
		qd, err := eng.DecideQuery(QueryContext{
			Resolver: resolver, ClientSubnet: subnets[i%benchDomains], Transport: TransportUDP,
		})
		if err != nil {
			tb.Fatal(err)
		}
		return qd
	}
}

// warmPredictive decides until every (domain, class) window slot of
// the predictive estimator is at its cap, the steady state of any live
// server, and returns the number of queries that took: this stream
// fills all 40 slots × 512 windows within 31 k queries (DRR2's TTLs
// straddle their running mean in every domain); 4× that for slack.
func warmPredictive(query func(int) QueryDecision) int {
	const n = 4 * benchDomains * 2 * 512
	for i := 0; i < n; i++ {
		query(i)
	}
	return n
}

var benchSink QueryDecision

// BenchmarkDecideQuery times one full decision — ECS classification,
// policy, TTL, ledger, estimator tap — per estimator kind. The gap
// between the two is the predictive kind's decision tap.
func BenchmarkDecideQuery(b *testing.B) {
	for _, kind := range core.EstimatorKinds() {
		b.Run(kind, func(b *testing.B) {
			query := benchEngine(b, kind)
			base := 0
			if kind == core.EstimatorPredictive {
				base = warmPredictive(query)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = query(base + i)
			}
		})
	}
}

func TestDecidePredictiveZeroAlloc(t *testing.T) {
	query := benchEngine(t, core.EstimatorPredictive)
	i := warmPredictive(query)
	if n := testing.AllocsPerRun(2000, func() { benchSink = query(i); i++ }); n != 0 {
		t.Errorf("DecideQuery under the predictive estimator allocates %v times per query, want 0", n)
	}
}
