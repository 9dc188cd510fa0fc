// Package simload drives the discrete-event simulator — the other
// driver of the one decision engine — at the paper's scale, and checks
// its results by invariants rather than by a frozen digest, so that a
// later change may legitimately move the goldens without touching the
// benchmark.
//
// It sets only Policy, Seed, OracleWeights, Estimator, Replicas and
// ReplicationInterval on sim.DefaultConfig: everything else is the
// paper's Table 1 (5 simulated hours, 7 servers, 20 domains).
package simload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"dnslb/internal/sim"
)

// Policies are the paper's scheduling disciplines a round runs with
// oracle weights: the two baselines, the probabilistic and the
// deterministic adaptive-TTL winners, and the two load-informed
// comparators.
var Policies = []string{"RR", "RR2", "PRR2-TTL/K", "DRR2-TTL/S_K", "DAL", "MRL"}

const (
	best     = "DRR2-TTL/S_K"
	baseline = "RR"
	// overload is the utilization level of the paper's headline metric,
	// Prob(MaxUtilization < 0.98).
	overload = 0.98
)

// Configs returns the fixed batch of one round for a seed: each policy
// with oracle weights, the best policy under each estimator kind, and
// the best policy on three replicas gossiping every simulated second.
func Configs(seed uint64) []sim.Config {
	var cfgs []sim.Config
	for _, p := range Policies {
		c := sim.DefaultConfig(p)
		c.Seed = seed
		cfgs = append(cfgs, c)
	}
	for _, kind := range []string{"reactive", "predictive"} {
		c := sim.DefaultConfig(best)
		c.Seed = seed
		c.OracleWeights = false
		c.Estimator = kind
		cfgs = append(cfgs, c)
	}
	c := sim.DefaultConfig(best)
	c.Seed = seed
	c.Replicas = 3
	c.ReplicationInterval = 1
	return append(cfgs, c)
}

// Round is the outcome of one batch.
type Round struct {
	Wall time.Duration // host time for the whole batch, checks included
	// Walls holds the host time of each simulation of the batch, in the
	// order they ran: Configs(seed), then the first config once more.
	Walls  []time.Duration
	Runs   int      // simulations executed
	Failed int      // simulations that errored or broke an invariant
	Events uint64   // events fired, summed over the batch
	Errors []string // one line per failure
}

// Digest condenses what a simulation produced into a hash: two runs of
// one config must agree on it exactly.
func Digest(r *sim.Result) [32]byte {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(r.EventsFired)
	put(r.AddressRequests)
	put(r.CacheHits)
	put(r.TotalHits)
	put(r.TotalPages)
	put(r.AlarmSignals)
	put(math.Float64bits(r.MeanResponseTime))
	for _, u := range r.MeanServerUtil {
		put(math.Float64bits(u))
	}
	for _, u := range r.MaxUtil.Values() {
		put(math.Float64bits(u))
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// RunRound executes the batch for seed and checks it: every run
// completes and fires events; the first config run a second time
// reproduces its digest; and the best adaptive-TTL policy keeps the
// cluster out of overload at least as often as plain round-robin.
func RunRound(seed uint64) Round {
	var rd Round
	fail := func(format string, args ...any) {
		rd.Failed++
		rd.Errors = append(rd.Errors, fmt.Sprintf(format, args...))
	}
	start := time.Now()
	prob := map[string]float64{}
	var first [32]byte
	cfgs := Configs(seed)
	for i, c := range append(cfgs, cfgs[0]) {
		rd.Runs++
		begin := time.Now()
		res, err := sim.Run(c)
		rd.Walls = append(rd.Walls, time.Since(begin))
		if err != nil {
			fail("seed %d %s: %v", seed, c.Policy, err)
			continue
		}
		rd.Events += res.EventsFired
		if res.EventsFired == 0 {
			fail("seed %d %s: no events fired", seed, c.Policy)
		}
		switch {
		case i == 0:
			first = Digest(res)
		case i == len(cfgs):
			if Digest(res) != first {
				fail("seed %d %s: a second run of the same config gave a different result", seed, c.Policy)
			}
		}
		if i < len(Policies) {
			prob[c.Policy] = res.ProbMaxUnder(overload)
		}
	}
	if b, r := prob[best], prob[baseline]; b < r {
		fail("seed %d: Prob(MaxUtil<%.2f) of %s is %.4f, below %s at %.4f", seed, overload, best, b, baseline, r)
	}
	rd.Wall = time.Since(start)
	return rd
}
