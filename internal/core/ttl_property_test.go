package core

import (
	"fmt"
	"slices"
	"testing"

	"dnslb/internal/simcore"
)

// The paper defines each TTL by formula, TTL_ij = base·s_i/d_j. These
// properties state what that formula may hand out, over estimator
// histories (random RecordHits/Roll sequences in which some domains
// are never hit), random capacities, and every TTL variant
// NewTTLPolicy accepts:
//
//	(a) bounded: every TTL lies in [minAdaptiveTTL, maxTTL];
//	(b) unknown is not cold: a domain with no evidence — a zero weight,
//	    or under a class variant a class whose mean weight is zero —
//	    gets exactly the hottest domain's TTL on the same server;
//	(c) monotone in load: on one server, of two domains with evidence
//	    the heavier never gets the longer TTL (weakly, since class
//	    variants give a class one TTL);
//	(d) monotone in capacity: for one domain, a server with more
//	    capacity never gets the shorter TTL, clamps included (weakly:
//	    variants without the server term give every server one TTL).

// ttlHistory is one decoded property case.
type ttlHistory struct {
	capacities []float64 // sorted decreasing
	domains    int
	hitDomains int // domains ≥ hitDomains are never hit
	estimator  string
	ops        []ttlOp
}

// ttlOp records hits for a domain, or rolls the estimator when roll is
// positive.
type ttlOp struct {
	domain int
	hits   float64
	roll   float64
}

// decodeTTLHistory turns arbitrary bytes into a history; every byte
// string decodes (missing bytes read as zero).
func decodeTTLHistory(data []byte) ttlHistory {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	var h ttlHistory
	n := 1 + next()%8
	for range n {
		h.capacities = append(h.capacities, float64(1+next()))
	}
	slices.Sort(h.capacities)
	slices.Reverse(h.capacities)
	h.domains = 1 + next()%20
	h.hitDomains = 1 + next()%h.domains
	h.estimator = EstimatorKinds()[next()%len(EstimatorKinds())]
	for len(data) > 0 {
		op := next()
		if op%5 == 0 {
			h.ops = append(h.ops, ttlOp{roll: float64(1 + next()%120)})
			continue
		}
		h.ops = append(h.ops, ttlOp{domain: next() % h.hitDomains, hits: float64(next()) * float64(1+op%7)})
	}
	return h
}

// ttlVariants lists every variant NewTTLPolicy accepts for k domains:
// TTL/1 … TTL/(k+1) and TTL/K, each with and without the server term.
func ttlVariants(k int) []TTLVariant {
	var out []TTLVariant
	for _, aware := range []bool{false, true} {
		out = append(out, TTLVariant{Classes: PerDomain, ServerAware: aware})
		for i := 1; i <= k+1; i++ {
			out = append(out, TTLVariant{Classes: NClasses(i), ServerAware: aware})
		}
	}
	return out
}

// checkTTLProperties replays the history and checks (a)–(d) for every
// variant after every roll.
func checkTTLProperties(t *testing.T, data []byte) {
	h := decodeTTLHistory(data)
	c, err := NewCluster(h.capacities)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewState(c, h.domains)
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewLoadEstimator(h.estimator, h.domains, DefaultEstimatorAlpha)
	if err != nil {
		t.Fatal(err)
	}
	var policies []*TTLPolicy
	for _, v := range ttlVariants(h.domains) {
		p, err := NewTTLPolicy(v, 240)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		policies = append(policies, p)
	}
	// Every history ends with a roll, so at least one weight vector
	// comes from the estimator.
	ops := append(h.ops, ttlOp{roll: 60})
	for step, op := range ops {
		if op.roll == 0 {
			est.Record(op.domain, op.hits)
			continue
		}
		est.Roll(op.roll)
		if err := st.SetWeights(est.Weights()); err != nil {
			continue // an all-zero estimate leaves the previous weights
		}
		sn := st.Snapshot()
		for _, p := range policies {
			if msg := ttlViolation(sn, p); msg != "" {
				t.Fatalf("%v, %s estimator, capacities %v, weights %v, after op %d: %s",
					p.variant, h.estimator, h.capacities, sn.Weights(), step, msg)
			}
		}
	}
}

// ttlViolation returns the first property that p breaks on sn, or "".
func ttlViolation(sn *Snapshot, p *TTLPolicy) string {
	k, n := sn.Domains(), sn.Cluster().N()
	hottest := 0
	for j := 1; j < k; j++ {
		if sn.Weight(j) > sn.Weight(hottest) {
			hottest = j
		}
	}
	factors := DomainFactors(sn, p.variant.Classes)
	for i := 0; i < n; i++ {
		hot := p.TTL(sn, hottest, i)
		for a := 0; a < k; a++ {
			ttl := p.TTL(sn, a, i)
			if !(ttl >= minAdaptiveTTL && ttl <= maxTTL) {
				return fmt.Sprintf("(a) TTL(domain %d, server %d) = %v outside [%v, %v]", a, i, ttl, minAdaptiveTTL, maxTTL)
			}
			perDomain := p.variant.Classes == PerDomain || int(p.variant.Classes) >= k
			if (factors[a] == 0 || perDomain && sn.Weight(a) == 0) && ttl != hot {
				return fmt.Sprintf("(b) domain %d has no evidence but TTL %v on server %d, hottest domain %d gets %v",
					a, ttl, i, hottest, hot)
			}
			for b := 0; b < k; b++ {
				if sn.Weight(b) > 0 && sn.Weight(a) > sn.Weight(b) && ttl > p.TTL(sn, b, i) {
					return fmt.Sprintf("(c) on server %d heavier domain %d (w %v) gets TTL %v > lighter domain %d's (w %v) %v",
						i, a, sn.Weight(a), ttl, b, sn.Weight(b), p.TTL(sn, b, i))
				}
			}
			c := sn.Cluster()
			for j := 0; j < n; j++ {
				if c.Capacity(i) > c.Capacity(j) && ttl < p.TTL(sn, a, j) {
					return fmt.Sprintf("(d) for domain %d server %d (capacity %v) gets TTL %v < server %d's (capacity %v) %v",
						a, i, c.Capacity(i), ttl, j, c.Capacity(j), p.TTL(sn, a, j))
				}
			}
		}
	}
	return ""
}

// TestTTLProperties checks (a)–(d) over a fixed corpus: hand-picked
// histories (one domain hit once, a single server, a roll before any
// hit) and 300 seeded random ones.
func TestTTLProperties(t *testing.T) {
	corpus := [][]byte{
		{},
		{0, 0, 3, 0, 0, 1, 0, 50},
		{7, 200, 150, 100, 90, 80, 60, 40, 10, 19, 1, 1, 3, 0, 9, 5, 30},
		{1, 255, 1, 19, 0, 5, 40, 1, 0, 200, 2, 0, 0},
	}
	for seed := range uint64(300) {
		s := simcore.NewStream(seed, "ttl-properties")
		b := make([]byte, 8+s.UniformInt(0, 120))
		for i := range b {
			b[i] = byte(s.UniformInt(0, 255))
		}
		corpus = append(corpus, b)
	}
	for _, data := range corpus {
		checkTTLProperties(t, data)
	}
}

// FuzzTTLPolicy checks (a)–(d) on histories the fuzzer chooses.
func FuzzTTLPolicy(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 3, 0, 0, 1, 0, 50})
	f.Add([]byte{7, 200, 150, 100, 90, 80, 60, 40, 10, 19, 1, 1, 3, 0, 9, 5, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		checkTTLProperties(t, data)
	})
}
