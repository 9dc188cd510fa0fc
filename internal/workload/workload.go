// Package workload models the client population of the paper's study:
// 500 clients partitioned among K connected domains by a pure Zipf
// distribution, each client issuing sessions of page requests with
// exponential think times and 5–15 hits per page.
//
// The package also implements the rate perturbation used by the
// estimation-error experiments: the busiest domain's request rate is
// increased by e% while the others are proportionally decreased so the
// total stays constant.
package workload

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dnslb/internal/simcore"
)

// Config describes the client population.
type Config struct {
	// Domains is the number of connected domains K (paper default 20).
	Domains int
	// Clients is the total client count (paper default 500).
	Clients int
	// ZipfTheta is the Zipf exponent; 1 is the paper's pure Zipf.
	// Ignored when Uniform is set.
	ZipfTheta float64
	// Uniform partitions clients evenly, the paper's "ideal" case.
	Uniform bool
	// MeanThinkTime is the mean time between page requests in seconds
	// (paper default 15, studied range 0–30).
	MeanThinkTime float64
	// PagesPerSession is the mean number of page requests per session
	// (paper default 20).
	PagesPerSession float64
	// HitsMin and HitsMax bound the uniform discrete number of hits
	// (HTML page plus embedded objects) per page request (paper: 5–15).
	HitsMin, HitsMax int
	// PerturbationPct skews the actual request rates for the
	// estimation-error experiments: the busiest domain's rate grows by
	// this percentage and the others shrink proportionally. 0 disables.
	PerturbationPct float64
}

// Default returns the paper's default workload parameters.
func Default() Config {
	return Config{
		Domains:         20,
		Clients:         500,
		ZipfTheta:       1,
		MeanThinkTime:   15,
		PagesPerSession: 20,
		HitsMin:         5,
		HitsMax:         15,
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	switch {
	case c.Domains <= 0:
		return errors.New("workload: Domains must be positive")
	case c.Clients <= 0:
		return errors.New("workload: Clients must be positive")
	case c.Clients < c.Domains:
		return fmt.Errorf("workload: %d clients cannot cover %d domains", c.Clients, c.Domains)
	case !c.Uniform && !(c.ZipfTheta >= 0 && c.ZipfTheta <= math.MaxFloat64):
		return errors.New("workload: ZipfTheta must be non-negative and finite")
	case !(c.MeanThinkTime > 0 && c.MeanThinkTime <= math.MaxFloat64):
		return errors.New("workload: MeanThinkTime must be positive and finite")
	case !(c.PagesPerSession >= 1 && c.PagesPerSession <= math.MaxFloat64):
		return errors.New("workload: PagesPerSession must be finite and at least 1")
	case c.HitsMin <= 0 || c.HitsMax < c.HitsMin:
		return fmt.Errorf("workload: hits range [%d,%d] invalid", c.HitsMin, c.HitsMax)
	case !(c.PerturbationPct >= 0 && c.PerturbationPct <= math.MaxFloat64):
		return errors.New("workload: PerturbationPct must be non-negative and finite")
	}
	return nil
}

// MeanHitsPerPage returns the expected number of hits per page request.
func (c Config) MeanHitsPerPage() float64 {
	return float64(c.HitsMin+c.HitsMax) / 2
}

// Shares returns the probability that a client belongs to each domain:
// pure Zipf by default, uniform in the ideal case.
func (c Config) Shares() []float64 {
	if c.Uniform {
		s := make([]float64, c.Domains)
		for j := range s {
			s[j] = 1 / float64(c.Domains)
		}
		return s
	}
	return simcore.ZipfWeights(c.Domains, c.ZipfTheta)
}

// Partition apportions the Clients among the Domains following Shares,
// using largest-remainder rounding so the counts sum exactly to
// Clients and every domain keeps at least one client.
func (c Config) Partition() []int {
	shares := c.Shares()
	counts := make([]int, c.Domains)
	type rem struct {
		j    int
		frac float64
	}
	rems := make([]rem, c.Domains)
	assigned := 0
	for j, s := range shares {
		exact := s * float64(c.Clients)
		counts[j] = int(math.Floor(exact))
		rems[j] = rem{j: j, frac: exact - math.Floor(exact)}
		assigned += counts[j]
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].j < rems[b].j
	})
	for i := 0; assigned < c.Clients; i++ {
		counts[rems[i%len(rems)].j]++
		assigned++
	}
	// Every connected domain has at least one client, taking from the
	// largest domain (it can spare one by the Clients >= Domains check).
	for j := range counts {
		if counts[j] == 0 {
			big := 0
			for i := range counts {
				if counts[i] > counts[big] {
					big = i
				}
			}
			counts[big]--
			counts[j]++
		}
	}
	return counts
}

// NominalRates returns each domain's offered hit rate in hits/second
// implied by its client count: clients_j · meanHits / meanThink.
func (c Config) NominalRates() []float64 {
	counts := c.Partition()
	rates := make([]float64, c.Domains)
	perClient := c.MeanHitsPerPage() / c.MeanThinkTime
	for j, n := range counts {
		rates[j] = float64(n) * perClient
	}
	return rates
}

// ActualRates returns the per-domain hit rates after applying the
// configured perturbation. With PerturbationPct == 0 these equal the
// nominal rates. The perturbation is capped so no other domain's rate
// goes negative.
func (c Config) ActualRates() []float64 {
	rates := c.NominalRates()
	if c.PerturbationPct == 0 {
		return rates
	}
	return Perturb(rates, c.PerturbationPct)
}

// Perturb applies the paper's estimation-error model to a rate vector:
// the busiest domain's rate increases by errPct percent and every
// other domain's rate is scaled down so the total stays constant. The
// returned slice is new; the input is not modified.
func Perturb(rates []float64, errPct float64) []float64 {
	out := make([]float64, len(rates))
	copy(out, rates)
	if len(out) < 2 || errPct <= 0 {
		return out
	}
	busiest := 0
	var total float64
	for j, r := range out {
		if r > out[busiest] {
			busiest = j
		}
		total += r
	}
	grown := out[busiest] * (1 + errPct/100)
	if grown > total {
		grown = total // cap: the busiest domain absorbs everything
	}
	rest := total - out[busiest]
	newRest := total - grown
	scale := 0.0
	if rest > 0 {
		scale = newRest / rest
	}
	for j := range out {
		if j == busiest {
			out[j] = grown
		} else {
			out[j] *= scale
		}
	}
	return out
}

// ThinkTimes converts the actual per-domain rates into per-domain mean
// think times so that the simulator realizes the perturbed rates with
// the fixed integer client partition: think_j = clients_j·meanHits/rate_j.
// Domains whose rate is zero get an effectively infinite think time.
func (c Config) ThinkTimes() []float64 {
	counts := c.Partition()
	rates := c.ActualRates()
	out := make([]float64, c.Domains)
	meanHits := c.MeanHitsPerPage()
	for j := range out {
		if rates[j] <= 0 {
			out[j] = math.Inf(1)
			continue
		}
		out[j] = float64(counts[j]) * meanHits / rates[j]
	}
	return out
}

// OracleWeights returns the relative hidden load weights the DNS would
// hold with perfect (unperturbed) knowledge: the nominal rates
// normalized to sum to one. The estimation-error experiments feed
// these stale weights to the scheduler while the clients follow
// ActualRates.
func (c Config) OracleWeights() []float64 {
	rates := c.NominalRates()
	var total float64
	for _, r := range rates {
		total += r
	}
	out := make([]float64, len(rates))
	for j, r := range rates {
		out[j] = r / total
	}
	return out
}
