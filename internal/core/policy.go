package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Decision is the DNS scheduler's answer to one address request: the
// chosen Web server and the time-to-live of the mapping.
type Decision struct {
	Server int
	TTL    float64 // seconds
}

// Policy is a complete DNS scheduling policy: a server selector plus a
// TTL policy, evaluated against shared scheduler state, with an
// optional proximity step in front of the selector.
//
// Concurrency contract: Schedule is safe for concurrent callers and
// may race freely with the State mutators (SetWeights, SetAlarm,
// SetDown and the membership mutators) — each decision is made
// against one immutable state snapshot. The decision counters are
// atomics, so every scheduled decision is counted exactly once; a
// Stats call concurrent with in-flight Schedules may observe a
// decision whose counters are only partially applied, but once the
// callers quiesce the totals are exact (Decisions == ΣPerServer ==
// ΣPerClass).
type Policy struct {
	name     string
	selector Selector
	geo      ProximityConfig
	rng      Rand // draws the proximity step; shared with the selector
	ttl      *TTLPolicy
	state    *State

	decisions atomic.Uint64
	// perServer points at an immutable slice of counter pointers; it is
	// grown copy-on-write when AddServer extends the cluster past the
	// slots allocated at creation, so Schedule never indexes out of
	// range after a membership change.
	perServer atomic.Pointer[[]*atomic.Uint64]
	perClass  [2]atomic.Uint64 // indexed by class - ClassNormal
	noServers atomic.Uint64
	sumTTL    [ttlAccShards]ttlAccShard
	minTTL    atomic.Uint64 // float64 bits; +Inf until first decision
	maxTTL    atomic.Uint64 // float64 bits; -Inf until first decision
}

// ttlAccShards spreads the CAS-accumulated TTL sum across cache lines
// so concurrent Schedule callers do not all retry on one word.
const ttlAccShards = 8

type ttlAccShard struct {
	bits atomic.Uint64 // float64 bits of the partial sum
	_    [56]byte      // pad to a cache line
}

// addFloat atomically accumulates v into a float64 stored as bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// serverCounter returns the decision counter for server i, growing the
// counter slice copy-on-write when a dynamically added server exceeds
// the allocated slots. The individual counters are shared between the
// old and new slices, so no count is ever lost to a race.
func (p *Policy) serverCounter(i int) *atomic.Uint64 {
	for {
		cur := p.perServer.Load()
		if i < len(*cur) {
			return (*cur)[i]
		}
		next := make([]*atomic.Uint64, i+1)
		copy(next, *cur)
		for j := len(*cur); j <= i; j++ {
			next[j] = new(atomic.Uint64)
		}
		if p.perServer.CompareAndSwap(cur, &next) {
			return next[i]
		}
	}
}

// Name returns the policy's catalog name.
func (p *Policy) Name() string { return p.name }

// State returns the scheduler state the policy reads.
func (p *Policy) State() *State { return p.state }

// Schedule answers one address request from the given domain. When
// every server is down it returns ErrNoServers; the decision counters
// are untouched in that case.
//
// Schedule is safe for concurrent callers and may run concurrently
// with every State mutator; the decision is made against a single
// immutable snapshot of the scheduler state.
func (p *Policy) Schedule(domain int) (Decision, error) {
	sn := p.state.Snapshot()
	if domain < 0 || domain >= sn.Domains() {
		return Decision{}, fmt.Errorf("core: domain %d out of range [0,%d)", domain, sn.Domains())
	}
	server := -1
	if p.geo.Preference > 0 {
		server = p.nearest(sn, domain)
	}
	if server < 0 {
		server = p.selector.Select(sn, domain)
	}
	if server < 0 {
		p.noServers.Add(1)
		return Decision{}, ErrNoServers
	}
	ttl := p.ttl.TTL(sn, domain, server)
	p.decisions.Add(1)
	p.serverCounter(server).Add(1)
	p.perClass[sn.Class(domain)-ClassNormal].Add(1)
	addFloat(&p.sumTTL[server%ttlAccShards].bits, ttl)
	for {
		old := p.minTTL.Load()
		if ttl >= math.Float64frombits(old) || p.minTTL.CompareAndSwap(old, math.Float64bits(ttl)) {
			break
		}
	}
	for {
		old := p.maxTTL.Load()
		if ttl <= math.Float64frombits(old) || p.maxTTL.CompareAndSwap(old, math.Float64bits(ttl)) {
			break
		}
	}
	return Decision{Server: server, TTL: ttl}, nil
}

// nearest is the proximity step (extension — not in the paper), run
// when the preference is positive: with probability Preference it
// answers with the nearest available server, which the selector never
// sees. It returns -1 to defer to the selector.
func (p *Policy) nearest(sn *Snapshot, domain int) int {
	if p.geo.Preference < 1 && p.rng.Float64() >= p.geo.Preference {
		return -1
	}
	return p.geo.Matrix.nearest(sn, domain)
}

// Decisions returns the total number of scheduling decisions made, as
// one atomic load — cheap enough for metric scrapes on a live server.
func (p *Policy) Decisions() uint64 { return p.decisions.Load() }

// ServerDecisions returns the number of decisions that chose server i,
// or 0 for an out-of-range index.
func (p *Policy) ServerDecisions(i int) uint64 {
	per := *p.perServer.Load()
	if i < 0 || i >= len(per) {
		return 0
	}
	return per[i].Load()
}

// ClassDecisions returns the number of decisions made for domains of
// class c, or 0 for an unknown class.
func (p *Policy) ClassDecisions(c DomainClass) uint64 {
	if c < ClassNormal || c > ClassHot {
		return 0
	}
	return p.perClass[c-ClassNormal].Load()
}

// Cursors returns the rotation cursors for checkpointing, or nil for a
// selector without them: the ledger selectors (WRR, DAL, MRL) keep
// time-coupled loads that rebuild within one TTL window.
func (p *Policy) Cursors() []int64 {
	if r, ok := p.selector.(*rotation); ok {
		return r.cursors()
	}
	return nil
}

// RestoreCursors reinstates rotation cursors captured by Cursors and
// reports whether they were accepted. A selector without cursors
// refuses, and so does a vector of the wrong length or one holding a
// cursor outside [-1, N) for the current N server slots; the rotation
// then simply starts fresh.
func (p *Policy) RestoreCursors(cursors []int64) bool {
	r, ok := p.selector.(*rotation)
	return ok && r.restoreCursors(cursors, p.state.Snapshot().Cluster().N())
}

// NoServerErrors returns how many Schedule calls failed with
// ErrNoServers (every server down). These are counted separately from
// the decision counters, which only ever count scheduled decisions.
func (p *Policy) NoServerErrors() uint64 { return p.noServers.Load() }

// Stats reports scheduling counters accumulated since creation.
//
// Before the first decision it is the documented zero value: Decisions
// is 0, PerServer is all-zero, PerClass is empty, and MeanTTL, MinTTL
// and MaxTTL are all 0 (not ±Inf or NaN).
type Stats struct {
	Decisions uint64
	PerServer []uint64
	PerClass  map[DomainClass]uint64
	MeanTTL   float64
	MinTTL    float64
	MaxTTL    float64
}

// Stats returns a snapshot of the policy's counters. Each counter is
// read atomically; if Schedule calls are in flight the individual
// counters are exact but may be mutually out of step by the handful of
// decisions being applied, and they agree once the callers quiesce.
func (p *Policy) Stats() Stats {
	counters := *p.perServer.Load()
	per := make([]uint64, len(counters))
	for i := range counters {
		per[i] = counters[i].Load()
	}
	pc := make(map[DomainClass]uint64, 2)
	for c := ClassNormal; c <= ClassHot; c++ {
		if v := p.perClass[c-ClassNormal].Load(); v > 0 {
			pc[c] = v
		}
	}
	s := Stats{
		Decisions: p.decisions.Load(),
		PerServer: per,
		PerClass:  pc,
	}
	if s.Decisions > 0 {
		var sum float64
		for i := range p.sumTTL {
			sum += math.Float64frombits(p.sumTTL[i].bits.Load())
		}
		s.MeanTTL = sum / float64(s.Decisions)
		s.MinTTL = math.Float64frombits(p.minTTL.Load())
		s.MaxTTL = math.Float64frombits(p.maxTTL.Load())
	}
	return s
}

// PolicyConfig carries the dependencies needed to build a policy from
// its catalog name.
type PolicyConfig struct {
	// Name is a catalog name; see PolicyNames.
	Name string
	// State is the shared scheduler state.
	State *State
	// Rand supplies randomness for the probabilistic selectors
	// (PRR, PRR2). Required for those policies only.
	Rand Rand
	// Now supplies the current time for the DAL baseline. Required for
	// DAL only.
	Now func() float64
	// ConstantTTL is the baseline TTL in seconds that every policy's
	// mean address-request rate is calibrated against. Zero means the
	// paper's 240 s.
	ConstantTTL float64
	// Proximity optionally puts a GeoDNS-style nearest-server step in
	// front of the selector (extension; see Policy.nearest).
	Proximity *ProximityConfig
}

// ProximityConfig parameterizes the proximity extension.
type ProximityConfig struct {
	// Matrix is the per-(domain, server) latency matrix.
	Matrix *LatencyMatrix
	// Preference in [0,1]: probability of answering with the nearest
	// available server instead of the discipline's choice.
	Preference float64
}

// DefaultConstantTTL is the paper's constant TTL of 240 seconds.
const DefaultConstantTTL = 240.0

type policySpec struct {
	selector string // "RR", "RR2", "PRR", "PRR2", "DAL"
	variant  TTLVariant
}

// policyCatalog maps every policy name used in the paper's figures to
// its construction. "Ideal" is PRR over a uniform client distribution;
// the workload layer provides the uniform part.
var policyCatalog = map[string]policySpec{
	"RR":           {selector: "RR", variant: TTLVariant{Classes: OneClass}},
	"RR2":          {selector: "RR2", variant: TTLVariant{Classes: OneClass}},
	"DAL":          {selector: "DAL", variant: TTLVariant{Classes: OneClass}},
	"MRL":          {selector: "MRL", variant: TTLVariant{Classes: OneClass}},
	"WRR":          {selector: "WRR", variant: TTLVariant{Classes: OneClass}},
	"Ideal":        {selector: "PRR", variant: TTLVariant{Classes: OneClass}},
	"PRR-TTL/1":    {selector: "PRR", variant: TTLVariant{Classes: OneClass}},
	"PRR-TTL/2":    {selector: "PRR", variant: TTLVariant{Classes: TwoClasses}},
	"PRR-TTL/K":    {selector: "PRR", variant: TTLVariant{Classes: PerDomain}},
	"PRR2-TTL/1":   {selector: "PRR2", variant: TTLVariant{Classes: OneClass}},
	"PRR2-TTL/2":   {selector: "PRR2", variant: TTLVariant{Classes: TwoClasses}},
	"PRR2-TTL/K":   {selector: "PRR2", variant: TTLVariant{Classes: PerDomain}},
	"DRR-TTL/S_1":  {selector: "RR", variant: TTLVariant{Classes: OneClass, ServerAware: true}},
	"DRR-TTL/S_2":  {selector: "RR", variant: TTLVariant{Classes: TwoClasses, ServerAware: true}},
	"DRR-TTL/S_K":  {selector: "RR", variant: TTLVariant{Classes: PerDomain, ServerAware: true}},
	"DRR2-TTL/S_1": {selector: "RR2", variant: TTLVariant{Classes: OneClass, ServerAware: true}},
	"DRR2-TTL/S_2": {selector: "RR2", variant: TTLVariant{Classes: TwoClasses, ServerAware: true}},
	"DRR2-TTL/S_K": {selector: "RR2", variant: TTLVariant{Classes: PerDomain, ServerAware: true}},
}

// PolicyNames returns every catalog name, sorted.
func PolicyNames() []string {
	names := make([]string, 0, len(policyCatalog))
	for n := range policyCatalog {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// parsePolicyName resolves names outside the fixed catalog following
// the paper's TTL/i meta-algorithm naming: "<SEL>-TTL/<i>" and
// "<SEL>-TTL/S_<i>" for SEL in {PRR, PRR2, DRR, DRR2} and i a positive
// class count or "K". The paper only evaluates deterministic selectors
// with TTL/S_i and probabilistic ones with TTL/i; the other
// combinations are valid compositions and accepted as extensions.
func parsePolicyName(name string) (policySpec, bool) {
	sel, rest, found := strings.Cut(name, "-TTL/")
	if !found || rest == "" {
		return policySpec{}, false
	}
	var spec policySpec
	switch sel {
	case "PRR", "PRR2":
		spec.selector = sel
	case "DRR":
		spec.selector = "RR"
	case "DRR2":
		spec.selector = "RR2"
	default:
		return policySpec{}, false
	}
	if cut, ok := strings.CutPrefix(rest, "S_"); ok {
		spec.variant.ServerAware = true
		rest = cut
	}
	if rest == "K" {
		spec.variant.Classes = PerDomain
		return spec, true
	}
	i, err := strconv.Atoi(rest)
	if err != nil || i < 1 {
		return policySpec{}, false
	}
	spec.variant.Classes = NClasses(i)
	return spec, true
}

// NewPolicy builds the named policy. It returns an error for unknown
// names or missing dependencies (Rand for PRR-family, Now for
// DAL/MRL). Beyond the fixed catalog (PolicyNames), any TTL/i
// meta-algorithm member is accepted, e.g. "PRR2-TTL/3" or
// "DRR2-TTL/S_4".
func NewPolicy(cfg PolicyConfig) (*Policy, error) {
	spec, ok := policyCatalog[cfg.Name]
	if !ok {
		spec, ok = parsePolicyName(cfg.Name)
	}
	if !ok {
		return nil, fmt.Errorf("core: unknown policy %q (known: %v, plus TTL/i forms)", cfg.Name, PolicyNames())
	}
	if cfg.State == nil {
		return nil, errors.New("core: PolicyConfig.State is required")
	}
	constTTL := cfg.ConstantTTL
	if constTTL == 0 {
		constTTL = DefaultConstantTTL
	}
	// One locked generator shared by the selector and the proximity
	// step: concurrent Schedule callers then serialize draws on a single
	// lock, and single-threaded callers see the exact draw sequence the
	// unlocked generator would produce.
	p := &Policy{name: cfg.Name, rng: LockRand(cfg.Rand), state: cfg.State}
	switch spec.selector {
	case "RR", "RR2":
		p.selector = newRotation(spec.selector == "RR2", nil)
	case "PRR", "PRR2":
		if p.rng == nil {
			return nil, fmt.Errorf("core: policy %q needs PolicyConfig.Rand", cfg.Name)
		}
		p.selector = newRotation(spec.selector == "PRR2", p.rng)
	case "WRR":
		p.selector = NewWRR()
	case "DAL", "MRL":
		if cfg.Now == nil {
			return nil, fmt.Errorf("core: policy %q needs PolicyConfig.Now", cfg.Name)
		}
		if spec.selector == "DAL" {
			p.selector = NewDAL(cfg.Now, constTTL)
		} else {
			p.selector = NewMRL(cfg.Now, constTTL)
		}
	}
	if pc := cfg.Proximity; pc != nil {
		switch {
		case pc.Matrix == nil:
			return nil, errors.New("core: proximity needs a latency matrix")
		case pc.Preference < 0 || pc.Preference > 1:
			return nil, fmt.Errorf("core: proximity preference %v out of [0,1]", pc.Preference)
		case pc.Preference > 0 && pc.Preference < 1 && p.rng == nil:
			return nil, errors.New("core: proximity needs PolicyConfig.Rand for preference in (0,1)")
		}
		p.geo = *pc
	}
	var err error
	if p.ttl, err = NewTTLPolicy(spec.variant, constTTL); err != nil {
		return nil, err
	}
	per := make([]*atomic.Uint64, cfg.State.Snapshot().Cluster().N())
	for i := range per {
		per[i] = new(atomic.Uint64)
	}
	p.perServer.Store(&per)
	p.minTTL.Store(math.Float64bits(math.Inf(1)))
	p.maxTTL.Store(math.Float64bits(math.Inf(-1)))
	return p, nil
}
