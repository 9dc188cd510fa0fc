package core

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// ClassCount says how many domain classes a TTL policy distinguishes.
// The paper's TTL/i meta-algorithm admits any i from 1 (one TTL for
// all, not adaptive) up to K (one TTL per domain); this package
// supports the full range.
type ClassCount int

const (
	// PerDomain uses a different TTL for every connected domain
	// (TTL/K), the i = K limit of the meta-algorithm.
	PerDomain ClassCount = -1
	// OneClass uses a single TTL for every domain (the degenerate
	// TTL/1 policy — not adaptive).
	OneClass ClassCount = 1
	// TwoClasses uses a high TTL for normal domains and a low TTL for
	// hot domains (TTL/2), partitioned by the class threshold β.
	TwoClasses ClassCount = 2
)

// NClasses returns the ClassCount for an i-class TTL policy. i must
// be at least 1; NewTTLPolicy validates.
func NClasses(i int) ClassCount { return ClassCount(i) }

// Valid reports whether the class count is meaningful.
func (c ClassCount) Valid() bool { return c == PerDomain || c >= 1 }

// String implements fmt.Stringer.
func (c ClassCount) String() string {
	switch {
	case c == PerDomain:
		return "TTL/K"
	case c >= 1:
		return fmt.Sprintf("TTL/%d", int(c))
	default:
		return fmt.Sprintf("ClassCount(%d)", int(c))
	}
}

// TTLVariant identifies one member of the adaptive TTL family.
type TTLVariant struct {
	// Classes is the number of domain classes the TTL discriminates.
	Classes ClassCount
	// ServerAware marks the deterministic TTL/S_i family, whose TTL is
	// additionally proportional to the chosen server's capacity.
	ServerAware bool
}

// String returns the paper's name for the variant (TTL/1, TTL/S_K, …).
func (v TTLVariant) String() string {
	if !v.ServerAware {
		return v.Classes.String()
	}
	if v.Classes == PerDomain {
		return "TTL/S_K"
	}
	return fmt.Sprintf("TTL/S_%d", int(v.Classes))
}

const (
	// maxTTL caps any adaptive TTL at one day. A domain with no
	// evidence (factor zero) is answered as the hottest class, so the
	// cap binds only for a positive estimate more than 86 400/base times
	// colder than the hottest domain.
	maxTTL = 86400.0
	// minAdaptiveTTL is a floor guarding against pathological
	// calibrations; real NS minimums are modelled separately by the
	// name server layer.
	minAdaptiveTTL = 1.0
)

// TTLPolicy computes the TTL returned with each address mapping.
// The base value TTL_min is recalibrated whenever the state's hidden
// load weights change, so that the policy's mean address-request rate
// matches that of the constant-TTL baseline (the paper's fairness
// condition for comparing policies).
//
// TTLPolicy is safe for concurrent use: the calibration for a state
// version is an immutable value published through an atomic pointer.
// Concurrent callers that race on a version change recompute the same
// pure function of the snapshot, so whichever publication wins is
// correct.
type TTLPolicy struct {
	variant  TTLVariant
	constTTL float64
	calib    atomic.Pointer[ttlCalib]
}

// ttlCalib is one immutable calibration: the base TTL_min and the
// per-domain factors d_j computed for a specific state version.
type ttlCalib struct {
	version uint64
	base    float64
	factors []float64
}

// NewTTLPolicy builds a TTL policy of the given variant whose address
// request rate is calibrated against a constant-TTL baseline of
// constTTL seconds (240 s in the paper).
func NewTTLPolicy(variant TTLVariant, constTTL float64) (*TTLPolicy, error) {
	if constTTL <= 0 || math.IsNaN(constTTL) {
		return nil, fmt.Errorf("core: constant TTL %v must be positive", constTTL)
	}
	if !variant.Classes.Valid() {
		return nil, fmt.Errorf("core: invalid class count %d", variant.Classes)
	}
	return &TTLPolicy{variant: variant, constTTL: constTTL}, nil
}

// DomainFactors returns d_j for every domain j: the domain component
// of the TTL is base / d_j, so the hottest domain (or class) with
// d = 1 receives the minimum TTL.
//
// TTL/1 gives every domain factor 1. TTL/2 uses the paper's class
// threshold β partition with class-mean weights. TTL/K uses each
// domain's own relative weight γ_j/γ_max. Intermediate i (the paper's
// TTL/i meta-algorithm, "for i = 3 … and so on") partitions the
// domains, sorted by weight, into i groups of approximately equal
// aggregate hidden load, then uses class-mean weights like TTL/2.
func DomainFactors(sn *Snapshot, classes ClassCount) []float64 {
	k := sn.Domains()
	out := make([]float64, k)
	switch {
	case classes == PerDomain || int(classes) >= k:
		for j := 0; j < k; j++ {
			out[j] = sn.Weight(j) / sn.MaxWeight()
		}
	case classes == OneClass:
		for j := range out {
			out[j] = 1
		}
	case classes == TwoClasses:
		hot := sn.ClassMeanWeight(ClassHot)
		for j := 0; j < k; j++ {
			out[j] = sn.ClassMeanWeight(sn.Class(j)) / hot
		}
	default:
		means := equalLoadPartition(sn, int(classes))
		top := 0.0
		for j := 0; j < k; j++ {
			if means[j] > top {
				top = means[j]
			}
		}
		for j := 0; j < k; j++ {
			out[j] = means[j] / top
		}
	}
	return out
}

// equalLoadPartition splits the domains (sorted by decreasing weight)
// into n contiguous groups of approximately equal aggregate weight and
// returns each domain's class-mean weight.
func equalLoadPartition(sn *Snapshot, n int) []float64 {
	k := sn.Domains()
	order := make([]int, k)
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool {
		return sn.Weight(order[a]) > sn.Weight(order[b])
	})
	means := make([]float64, k)
	pos := 0
	var cum float64
	for class := 0; class < n && pos < k; class++ {
		// Each class targets the remaining weight split evenly over the
		// remaining classes, always taking at least one domain and
		// leaving at least one domain per remaining class.
		remainingClasses := n - class
		target := (1 - cum) / float64(remainingClasses)
		start := pos
		var classSum float64
		for pos < k {
			left := k - pos - 1
			if pos > start && left < remainingClasses-1 {
				break
			}
			w := sn.Weight(order[pos])
			// The final class absorbs every remaining domain; earlier
			// classes stop once they reach their load target.
			if pos > start && remainingClasses > 1 && classSum+w > target {
				break
			}
			classSum += w
			pos++
		}
		mean := classSum / float64(pos-start)
		for q := start; q < pos; q++ {
			means[order[q]] = mean
		}
		cum += classSum
	}
	return means
}

// serverFactor returns the capacity term α_i·ρ of the TTL/S_i family:
// 1 for the least capable server, ρ for the most capable.
func (p *TTLPolicy) serverFactor(sn *Snapshot, server int) float64 {
	if !p.variant.ServerAware {
		return 1
	}
	return sn.Alpha(server) * sn.Rho()
}

// TTL returns the time-to-live in seconds for an address mapping of
// the given domain to the given server, as seen by the given snapshot.
func (p *TTLPolicy) TTL(sn *Snapshot, domain, server int) float64 {
	c := p.recalibrate(sn)
	d := c.factors[domain]
	if !(d > 0) {
		// A domain without evidence is unknown, not cold: answer it as
		// the hottest class, so the least-known domain is rescheduled
		// soonest instead of pinned for the longest.
		d = 1
	}
	ttl := c.base * p.serverFactor(sn, server) / d
	if ttl > maxTTL {
		ttl = maxTTL
	}
	if ttl < minAdaptiveTTL {
		ttl = minAdaptiveTTL
	}
	return ttl
}

// recalibrate returns the calibration for the snapshot's version,
// computing and publishing it when the cached one is stale.
func (p *TTLPolicy) recalibrate(sn *Snapshot) *ttlCalib {
	if c := p.calib.Load(); c != nil && c.version == sn.Version() {
		return c
	}
	factors := DomainFactors(sn, p.variant.Classes)
	c := &ttlCalib{
		version: sn.Version(),
		base:    calibrateBase(sn, p.variant, factors, p.constTTL),
		factors: factors,
	}
	p.calib.Store(c)
	return c
}

// calibrateBase computes the TTL_min that makes the variant's mean
// address-request rate equal to the constant-TTL baseline's.
//
// A domain cached for TTL_j issues NS cache misses at rate ≈ 1/TTL_j
// while it stays active, so the baseline rate is K/constTTL. With
// TTL_ij = base·s_i/d_j and round-robin server assignment (uniform
// over servers), the policy's rate is (Σ_j d_j)·E_i[1/s_i]/base;
// setting the two equal gives
//
//	base = constTTL · (Σ_j d_j) · E_i[1/s_i] / K.
func calibrateBase(sn *Snapshot, variant TTLVariant, factors []float64, constTTL float64) float64 {
	k := float64(sn.Domains())
	var sumD float64
	for _, d := range factors {
		sumD += d
	}
	meanInvS := 1.0
	if variant.ServerAware {
		// Average over servers that can actually receive mappings: a
		// crashed, draining, or retired server gets none, so counting it
		// would miscalibrate the request rate of the surviving cluster.
		var sum float64
		live := 0
		n := sn.Cluster().N()
		for i := 0; i < n; i++ {
			if !sn.Member(i) || sn.Down(i) || sn.Draining(i) {
				continue
			}
			sum += 1 / (sn.Alpha(i) * sn.Rho())
			live++
		}
		if live > 0 {
			meanInvS = sum / float64(live)
		}
	}
	base := constTTL * sumD * meanInvS / k
	if base < minAdaptiveTTL {
		base = minAdaptiveTTL
	}
	return base
}
