package core

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// stressPolicies covers every selector family: deterministic rotation
// (RR, RR2), probabilistic (PRR, PRR2), ledger-based (DAL, MRL, WRR)
// and the adaptive-TTL composites the paper evaluates.
var stressPolicies = []string{
	"RR", "RR2", "WRR", "PRR-TTL/K", "PRR2-TTL/K",
	"DRR-TTL/S_2", "DRR2-TTL/S_K", "DAL", "MRL",
}

// TestScheduleConcurrentWithMutators hammers Schedule from several
// goroutines while other goroutines continuously flip alarms, mark
// servers down, re-install weight estimates and move the class
// threshold. Run under -race this is the proof of the lock-free query
// path's safety; the counter check afterwards is the exactness proof:
// every successful decision is accounted exactly once.
func TestScheduleConcurrentWithMutators(t *testing.T) {
	for _, name := range stressPolicies {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cluster, err := ScaledCluster(5, 35, 500)
			if err != nil {
				t.Fatal(err)
			}
			st, err := NewState(cluster, 12)
			if err != nil {
				t.Fatal(err)
			}
			var now atomic.Uint64
			pol, err := NewPolicy(PolicyConfig{
				Name:  name,
				State: st,
				Rand:  rand.New(rand.NewPCG(1, 2)),
				Now:   func() float64 { return float64(now.Add(1)) / 1e3 },
			})
			if err != nil {
				t.Fatal(err)
			}

			const (
				schedulers = 4
				perWorker  = 2000
			)
			var scheduled atomic.Uint64
			stop := make(chan struct{})
			var wg, mutWG sync.WaitGroup

			// Mutator: weights, drains, alarms and downs churn the
			// published snapshot. It runs until the schedulers finish
			// (its own WaitGroup — waiting on it before closing stop
			// would deadlock), yielding each round so the schedulers
			// make progress even on GOMAXPROCS=1 under -race.
			mutWG.Add(1)
			go func() {
				defer mutWG.Done()
				r := rand.New(rand.NewPCG(3, 4))
				w := make([]float64, st.Snapshot().Domains())
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					runtime.Gosched()
					switch i % 4 {
					case 0:
						for j := range w {
							w[j] = 0.5 + r.Float64()
						}
						if err := st.SetWeights(w); err != nil {
							t.Error(err)
							return
						}
					case 1:
						if i%8 == 1 {
							_ = st.DrainServer(2)
						} else {
							_ = st.ReinstateServer(2, cluster.Capacity(2))
						}
					case 2:
						_ = st.SetAlarm(i%cluster.N(), i%8 == 2)
					case 3:
						// Keep at least one server live so Schedule
						// never sees an empty cluster.
						_ = st.SetDown(1+i%(cluster.N()-1), i%6 == 3)
					}
				}
			}()

			for g := 0; g < schedulers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						d, err := pol.Schedule((g*perWorker + i) % st.Snapshot().Domains())
						if err != nil {
							t.Errorf("schedule: %v", err)
							return
						}
						if d.Server < 0 || d.Server >= cluster.N() {
							t.Errorf("server %d out of range", d.Server)
							return
						}
						if d.TTL < 0 {
							t.Errorf("negative TTL %v", d.TTL)
							return
						}
						scheduled.Add(1)
					}
				}(g)
			}

			wg.Wait()
			close(stop)
			mutWG.Wait()

			stats := pol.Stats()
			want := scheduled.Load()
			if stats.Decisions != want {
				t.Errorf("Decisions = %d, want %d", stats.Decisions, want)
			}
			var perServer, perClass uint64
			for _, v := range stats.PerServer {
				perServer += v
			}
			for _, v := range stats.PerClass {
				perClass += v
			}
			if perServer != want {
				t.Errorf("sum(PerServer) = %d, want %d", perServer, want)
			}
			if perClass != want {
				t.Errorf("sum(PerClass) = %d, want %d", perClass, want)
			}
			if stats.MinTTL < 0 || stats.MaxTTL < stats.MinTTL {
				t.Errorf("TTL bounds inconsistent: min %v max %v", stats.MinTTL, stats.MaxTTL)
			}
			if stats.MeanTTL < stats.MinTTL || stats.MeanTTL > stats.MaxTTL {
				t.Errorf("MeanTTL %v outside [%v, %v]", stats.MeanTTL, stats.MinTTL, stats.MaxTTL)
			}
		})
	}
}

// TestStatsZeroValue pins the documented semantics before any
// decision: plain zeros, not the ±Inf min/max accumulator seeds.
func TestStatsZeroValue(t *testing.T) {
	cluster, err := ScaledCluster(3, 20, 300)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewState(cluster, 4)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := NewPolicy(PolicyConfig{Name: "RR", State: st})
	if err != nil {
		t.Fatal(err)
	}
	s := pol.Stats()
	if s.Decisions != 0 || s.MeanTTL != 0 || s.MinTTL != 0 || s.MaxTTL != 0 {
		t.Errorf("zero-value Stats = %+v, want all-zero TTL fields", s)
	}
	for i, v := range s.PerServer {
		if v != 0 {
			t.Errorf("PerServer[%d] = %d before any decision", i, v)
		}
	}
	if len(s.PerClass) != 0 {
		t.Errorf("PerClass = %v before any decision, want empty", s.PerClass)
	}
}

// TestSnapshotImmutableUnderMutation asserts a loaded snapshot never
// changes after later mutations: readers that captured it keep a
// consistent view.
func TestSnapshotImmutableUnderMutation(t *testing.T) {
	cluster, err := ScaledCluster(4, 20, 400)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewState(cluster, 6)
	if err != nil {
		t.Fatal(err)
	}
	sn := st.Snapshot()
	version := sn.Version()
	weights := sn.Weights()
	hot := sn.HotDomains()

	if err := st.SetWeights([]float64{9, 1, 1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := st.SetAlarm(0, true); err != nil {
		t.Fatal(err)
	}
	if err := st.SetDown(1, true); err != nil {
		t.Fatal(err)
	}

	if sn.Version() != version {
		t.Errorf("captured snapshot version moved: %d -> %d", version, sn.Version())
	}
	if sn.Alarmed(0) || sn.Down(1) {
		t.Error("captured snapshot sees later alarm/down mutations")
	}
	if got := sn.Weights(); len(got) == len(weights) {
		for i := range got {
			if got[i] != weights[i] {
				t.Errorf("captured snapshot weight %d moved: %v -> %v", i, weights[i], got[i])
			}
		}
	}
	if sn.HotDomains() != hot {
		t.Errorf("captured snapshot hot count moved: %d -> %d", hot, sn.HotDomains())
	}
	if st.Snapshot().Version() == version {
		t.Error("mutations did not publish a new snapshot version")
	}
}
