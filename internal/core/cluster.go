// Package core implements the paper's primary contribution: the DNS
// scheduling algorithms for geographically distributed heterogeneous
// Web servers, including the class of adaptive TTL policies.
//
// The package is pure algorithm code: it has no dependency on the
// simulation engine or on the wire-level DNS server, both of which
// drive it through the Policy type.
//
// Naming follows the paper:
//
//	RR, RR2        deterministic (two-tier) round-robin server selection
//	PRR, PRR2      probabilistic, capacity-aware variants
//	TTL/1,2,K      TTL chosen from the source domain (1, 2 or K classes)
//	TTL/S_1,S_2,S_K  TTL chosen from domain class and server capacity
//	DAL            minimum dynamically accumulated load baseline
package core

import (
	"errors"
	"fmt"
	"math"
)

// Cluster describes the heterogeneous Web server set. Servers are
// numbered in decreasing processing capacity, as in the paper
// (S_1 is the most powerful server).
type Cluster struct {
	capacities []float64 // absolute capacities, hits per second
}

// NewCluster builds a cluster from absolute server capacities in hits
// per second. Capacities must be positive and sorted in non-increasing
// order (S_1 first).
func NewCluster(capacities []float64) (*Cluster, error) {
	if len(capacities) == 0 {
		return nil, errors.New("core: cluster needs at least one server")
	}
	cs := make([]float64, len(capacities))
	copy(cs, capacities)
	for i, c := range cs {
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("core: capacity %d is %v, want positive finite", i, c)
		}
		if i > 0 && c > cs[i-1] {
			return nil, fmt.Errorf("core: capacities not sorted decreasing at %d (%v > %v)", i, c, cs[i-1])
		}
	}
	return &Cluster{capacities: cs}, nil
}

// withCapacity returns a new cluster with the capacity of slot i
// changed, or with a new slot appended when i is -1. It bypasses the
// sorted-order validation of NewCluster: dynamic membership changes
// legitimately produce unsorted capacity vectors, and the scheduler
// normalizes relative capacities through Snapshot.Alpha/Rho rather
// than positionally (C_1/C_N). Only State's membership mutators call
// it, with capacity already validated positive finite.
func (c *Cluster) withCapacity(i int, capacity float64) *Cluster {
	cs := make([]float64, len(c.capacities), len(c.capacities)+1)
	copy(cs, c.capacities)
	if i < 0 {
		cs = append(cs, capacity)
	} else {
		cs[i] = capacity
	}
	return &Cluster{capacities: cs}
}

// N returns the number of servers.
func (c *Cluster) N() int { return len(c.capacities) }

// Capacity returns the absolute capacity of server i in hits/second.
func (c *Cluster) Capacity(i int) float64 { return c.capacities[i] }

// table2 holds the paper's Table 2: relative server capacities for the
// four heterogeneity levels with N = 7.
var table2 = map[int][]float64{
	20: {1, 1, 1, 0.8, 0.8, 0.8, 0.8},
	35: {1, 1, 0.8, 0.8, 0.65, 0.65, 0.65},
	50: {1, 1, 0.8, 0.8, 0.5, 0.5, 0.5},
	65: {1, 1, 0.8, 0.8, 0.35, 0.35, 0.35},
}

// HeterogeneityVector returns relative server capacities for n servers
// at the given heterogeneity level in percent. For n = 7 and the four
// levels studied in the paper it returns Table 2 exactly; other shapes
// follow the same three-tier pattern (≈2/7 of servers at 1.0, ≈2/7 at
// 0.8, the rest at 1-level), with tiers merged when they coincide.
func HeterogeneityVector(n int, levelPct int) ([]float64, error) {
	if n <= 0 {
		return nil, errors.New("core: need at least one server")
	}
	if levelPct < 0 || levelPct >= 100 {
		return nil, fmt.Errorf("core: heterogeneity %d%% out of range [0,100)", levelPct)
	}
	if n == 7 {
		if v, ok := table2[levelPct]; ok {
			out := make([]float64, len(v))
			copy(out, v)
			return out, nil
		}
	}
	low := 1 - float64(levelPct)/100
	out := make([]float64, n)
	if levelPct == 0 {
		for i := range out {
			out[i] = 1
		}
		return out, nil
	}
	nTop := int(math.Round(float64(n) * 2.0 / 7.0))
	if nTop < 1 {
		nTop = 1
	}
	nMid := int(math.Round(float64(n) * 2.0 / 7.0))
	if nTop+nMid >= n {
		nMid = n - nTop - 1
		if nMid < 0 {
			nMid = 0
		}
	}
	mid := 0.8
	if mid < low {
		mid = low
	}
	for i := range out {
		switch {
		case i < nTop:
			out[i] = 1
		case i < nTop+nMid:
			out[i] = mid
		default:
			out[i] = low
		}
	}
	return out, nil
}

// ScaledCluster builds a cluster of n servers at the given
// heterogeneity level whose total absolute capacity is totalHitsPerSec,
// the paper's constant-total-capacity construction.
func ScaledCluster(n, levelPct int, totalHitsPerSec float64) (*Cluster, error) {
	if totalHitsPerSec <= 0 {
		return nil, fmt.Errorf("core: total capacity %v must be positive", totalHitsPerSec)
	}
	rel, err := HeterogeneityVector(n, levelPct)
	if err != nil {
		return nil, err
	}
	var sum float64
	for _, r := range rel {
		sum += r
	}
	abs := make([]float64, n)
	for i, r := range rel {
		abs[i] = r / sum * totalHitsPerSec
	}
	return NewCluster(abs)
}
