package dnslb_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"dnslb"
	"dnslb/internal/core"
	"dnslb/internal/dnswire"
	"dnslb/internal/experiments"
	"dnslb/internal/sim"
	"dnslb/internal/simcore"
)

// BenchmarkExperiments regenerates every registered table and figure,
// one sub-benchmark per experiment ID (paper figures, Table 2 and the
// extensions), at one simulated hour and one replication per point.
// Regenerating the paper's full 5-hour/3-replication data is
// `dnslb-bench -exp all`.
func BenchmarkExperiments(b *testing.B) {
	for _, id := range experiments.IDs() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fig, err := experiments.Registry[id](experiments.Options{Duration: 3600, Reps: 1, Seed: uint64(i) + 1})
				if err != nil {
					b.Fatal(err)
				}
				if len(fig.Series) == 0 {
					b.Fatal("figure produced no series")
				}
			}
		})
	}
}

// BenchmarkSimulation5h measures one full paper-scale run (5 simulated
// hours, ~620k events) of the best-performing policy.
func BenchmarkSimulation5h(b *testing.B) { benchSimulation5h(b, 0) }

// BenchmarkSimulation5hReplicated is the same run on a replica set of
// three gossiping every virtual second — the shape benchmark/simload
// runs, and the part of the sim assembly only R > 1 exercises.
func BenchmarkSimulation5hReplicated(b *testing.B) { benchSimulation5h(b, 3) }

func benchSimulation5h(b *testing.B, replicas int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig("DRR2-TTL/S_K")
		cfg.Seed = uint64(i) + 1
		cfg.Replicas = replicas
		cfg.ReplicationInterval = 1 // read only when replicas > 1
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.EventsFired), "events/run")
		}
	}
}

// BenchmarkSchedulerDecision measures a single DNS scheduling decision
// for each policy family — the per-address-request cost a real
// deployment pays. Together the cases run every selector path: the
// one- and two-tier rotation, deterministic and probabilistic, the
// three ledger selectors, and the proximity step in front of a
// rotation ("+geo0.5": nearest-server preference 0.5 on the ring
// geography). The clock advances a second per decision, so DAL and MRL
// reach their steady 240 pending mappings within the first 240
// decisions and each op costs the same at any b.N.
func BenchmarkSchedulerDecision(b *testing.B) {
	for _, c := range []struct {
		policy string
		geo    float64
	}{
		{"RR", 0}, {"RR2", 0}, {"PRR-TTL/1", 0}, {"PRR2-TTL/K", 0}, {"DRR2-TTL/S_K", 0},
		{"DAL", 0}, {"MRL", 0}, {"WRR", 0}, {"DRR2-TTL/S_K", 0.5},
	} {
		name := c.policy
		if c.geo > 0 {
			name += fmt.Sprintf("+geo%g", c.geo)
		}
		b.Run(name, func(b *testing.B) {
			cluster, err := core.ScaledCluster(7, 35, 500)
			if err != nil {
				b.Fatal(err)
			}
			state, err := core.NewState(cluster, 20)
			if err != nil {
				b.Fatal(err)
			}
			if err := state.SetWeights(simcore.ZipfWeights(20, 1)); err != nil {
				b.Fatal(err)
			}
			geo, err := core.RingProximityConfig(20, cluster.N(), c.geo)
			if err != nil {
				b.Fatal(err)
			}
			now := 0.0
			policy, err := core.NewPolicy(core.PolicyConfig{
				Name:      c.policy,
				State:     state,
				Rand:      simcore.NewStream(1, "bench"),
				Now:       func() float64 { now++; return now },
				Proximity: geo,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := policy.Schedule(i % 20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScheduleParallel measures concurrent scheduling decisions
// against one shared policy — the contention profile of the lock-free
// query path. Compare -cpu 1 with -cpu N: the snapshot design keeps
// per-decision cost flat instead of serializing behind a policy mutex.
func BenchmarkScheduleParallel(b *testing.B) {
	for _, name := range []string{"RR", "PRR2-TTL/K", "DRR2-TTL/S_K"} {
		b.Run(name, func(b *testing.B) {
			cluster, err := core.ScaledCluster(7, 35, 500)
			if err != nil {
				b.Fatal(err)
			}
			state, err := core.NewState(cluster, 20)
			if err != nil {
				b.Fatal(err)
			}
			if err := state.SetWeights(simcore.ZipfWeights(20, 1)); err != nil {
				b.Fatal(err)
			}
			var tick atomic.Int64
			policy, err := core.NewPolicy(core.PolicyConfig{
				Name:  name,
				State: state,
				Rand:  simcore.NewStream(1, "bench"),
				Now:   func() float64 { return float64(tick.Add(1)) / 1e4 },
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				domain := 0
				for pb.Next() {
					if _, err := policy.Schedule(domain); err != nil {
						b.Fatal(err)
					}
					domain = (domain + 1) % 20
				}
			})
		})
	}
}

// BenchmarkDNSWirePack measures encoding a typical authoritative
// response.
func BenchmarkDNSWirePack(b *testing.B) {
	m := responseMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDNSWireUnpack measures decoding the same response.
func BenchmarkDNSWireUnpack(b *testing.B) {
	wire, err := responseMessage().Pack()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dnswire.Unpack(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func responseMessage() *dnswire.Message {
	return &dnswire.Message{
		Header: dnswire.Header{ID: 1, Response: true, Authoritative: true},
		Questions: []dnswire.Question{
			{Name: "www.site.example.", Type: dnswire.TypeA, Class: dnswire.ClassIN},
		},
		Answers: []dnswire.ResourceRecord{{
			Name: "www.site.example.", Type: dnswire.TypeA, Class: dnswire.ClassIN,
			TTL: 240, Data: mustA("10.0.0.1"),
		}},
	}
}

func mustA(s string) dnswire.A {
	var a dnswire.A
	if err := a.Addr.UnmarshalText([]byte(s)); err != nil {
		panic(err)
	}
	return a
}

// Example of using the public API; also keeps the facade's quickstart
// in the doc comment honest.
func Example() {
	cfg := dnslb.DefaultSimConfig("DRR2-TTL/S_K")
	cfg.Duration = 900
	res, err := dnslb.RunSim(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.ProbMaxUnder(0.98) > 0.5)
	// Output: true
}
