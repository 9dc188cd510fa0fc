package core

// Snapshot is an immutable, internally consistent view of the
// scheduler state: the cluster, the hidden-load weight estimates, the
// derived two-tier class partition, and the per-server alarm,
// liveness, and membership flags, all frozen at one instant.
//
// Snapshots are built copy-on-write by State's mutators and published
// atomically; once obtained from State.Snapshot they are safe for
// unsynchronized concurrent reads and never change. The query hot path
// (Policy.Schedule) loads one snapshot per decision so that the
// selector and the TTL policy agree on what the cluster looked like,
// with no lock on the read side.
//
// Server lifecycle: a slot is a *member* from AddServer (or initial
// construction) until RemoveServer retires it. Slot indices are
// stable for the life of a State — removal never renumbers the
// surviving servers, so externally held indices (load reports, DNS
// address tables) stay valid across membership churn. A member can be
// *draining* (no new mappings, but still resolvable while cached
// mappings point at it — the paper's hidden-load window), *down*
// (failed), or *alarmed* (overloaded); a retired slot is none of
// these and is never scheduled again unless reinstated.
type Snapshot struct {
	cluster *Cluster
	beta    float64 // class threshold; hot iff weight > beta

	weights []float64     // relative hidden load weights, sum 1
	classes []DomainClass // derived from weights and beta
	wMax    float64       // weight of the most popular domain
	wHot    float64       // mean weight of the hot class
	wNormal float64       // mean weight of the normal class
	hotN    int           // cached hot-class size (avoids O(K) scans)

	alarmed  []bool
	down     []bool
	member   []bool // false = retired slot (removed from the cluster)
	draining []bool // member, no new mappings, TTL window running

	// Derived membership counts, recomputed by recount() on every
	// flag mutation (control-plane rate, never on the query path).
	nDown     int // down members
	nMember   int
	nEligible int // member && !down && !draining
	nAlarmedE int // eligible && alarmed

	// cMax/cMin are the extreme member capacities, the normalization
	// for the relative capacities α_i and the power ratio ρ. For a
	// statically built (sorted) cluster they equal C_1 and C_N, the
	// paper's α_i = C_i / C_1 and ρ = C_1 / C_N.
	cMax, cMin float64

	// version increments whenever weights, β, or cluster membership
	// change, letting TTL policies cache their calibration until the
	// state moves.
	version uint64
}

// clone returns a deep copy of the snapshot for copy-on-write
// mutation. The cluster is shared: it is immutable after construction
// (membership mutators that change capacities install a new one).
func (sn *Snapshot) clone() *Snapshot {
	next := *sn
	next.weights = append([]float64(nil), sn.weights...)
	next.classes = append([]DomainClass(nil), sn.classes...)
	next.alarmed = append([]bool(nil), sn.alarmed...)
	next.down = append([]bool(nil), sn.down...)
	next.member = append([]bool(nil), sn.member...)
	next.draining = append([]bool(nil), sn.draining...)
	return &next
}

// reclassify recomputes the derived partition data of a snapshot under
// construction. It must only be called before the snapshot is
// published.
func (sn *Snapshot) reclassify() {
	sn.version++
	if len(sn.classes) != len(sn.weights) {
		sn.classes = make([]DomainClass, len(sn.weights))
	}
	sn.wMax = 0
	var hotSum, normSum float64
	var hotN, normN int
	for _, v := range sn.weights {
		if v > sn.wMax {
			sn.wMax = v
		}
	}
	for j, v := range sn.weights {
		if v > sn.beta {
			sn.classes[j] = ClassHot
			hotSum += v
			hotN++
		} else {
			sn.classes[j] = ClassNormal
			normSum += v
			normN++
		}
	}
	sn.hotN = hotN
	// Degenerate partitions (all domains in one class) fall back to the
	// overall mean so that TTL/2 stays well defined.
	mean := 1 / float64(len(sn.weights))
	sn.wHot, sn.wNormal = mean, mean
	if hotN > 0 {
		sn.wHot = hotSum / float64(hotN)
	}
	if normN > 0 {
		sn.wNormal = normSum / float64(normN)
	}
}

// recount recomputes the membership-derived counts and the capacity
// extremes of a snapshot under construction. Mutators call it after
// changing any alarm/down/member/draining flag or the cluster; it is
// O(N) but runs only at control-plane rate.
func (sn *Snapshot) recount() {
	sn.nDown, sn.nMember, sn.nEligible, sn.nAlarmedE = 0, 0, 0, 0
	sn.cMax, sn.cMin = 0, 0
	for i := range sn.member {
		if !sn.member[i] {
			continue
		}
		sn.nMember++
		c := sn.cluster.Capacity(i)
		if sn.cMax == 0 || c > sn.cMax {
			sn.cMax = c
		}
		if sn.cMin == 0 || c < sn.cMin {
			sn.cMin = c
		}
		if sn.down[i] {
			sn.nDown++
		}
		if !sn.down[i] && !sn.draining[i] {
			sn.nEligible++
			if sn.alarmed[i] {
				sn.nAlarmedE++
			}
		}
	}
}

// Cluster returns the server cluster. N() counts slots, including
// retired ones; see Member for slot standing.
func (sn *Snapshot) Cluster() *Cluster { return sn.cluster }

// Domains returns the number of connected domains.
func (sn *Snapshot) Domains() int { return len(sn.weights) }

// Version returns the state version this snapshot was built at; it
// increments whenever the weights, the class threshold, or cluster
// membership change.
func (sn *Snapshot) Version() uint64 { return sn.version }

// Weight returns the relative hidden load weight of domain j.
func (sn *Snapshot) Weight(j int) float64 { return sn.weights[j] }

// Weights returns a copy of the relative hidden load weight vector.
func (sn *Snapshot) Weights() []float64 {
	return append([]float64(nil), sn.weights...)
}

// MaxWeight returns γ_max, the weight of the most popular domain.
func (sn *Snapshot) MaxWeight() float64 { return sn.wMax }

// Class returns the two-tier class of domain j.
func (sn *Snapshot) Class(j int) DomainClass { return sn.classes[j] }

// ClassMeanWeight returns the mean hidden load weight of a class,
// used by the two-class TTL policies.
func (sn *Snapshot) ClassMeanWeight(c DomainClass) float64 {
	if c == ClassHot {
		return sn.wHot
	}
	return sn.wNormal
}

// HotDomains returns how many domains are currently in the hot class.
// The count is computed once per reclassification, not per call.
func (sn *Snapshot) HotDomains() int { return sn.hotN }

// Alpha returns the relative capacity α_i = C_i / C_max of server i,
// normalized over the member servers so that dynamically added
// capacity re-scales the whole vector. For a statically built cluster
// it equals the paper's C_i / C_1.
func (sn *Snapshot) Alpha(i int) float64 {
	if sn.cMax <= 0 {
		return 1
	}
	return sn.cluster.Capacity(i) / sn.cMax
}

// Rho returns the processor power ratio ρ = C_max / C_min over the
// member servers.
func (sn *Snapshot) Rho() float64 {
	if sn.cMin <= 0 {
		return 1
	}
	return sn.cMax / sn.cMin
}

// Alarmed reports whether server i has declared itself critically
// loaded.
func (sn *Snapshot) Alarmed(i int) bool { return sn.alarmed[i] }

// Down reports whether server i is currently marked failed.
func (sn *Snapshot) Down(i int) bool { return sn.down[i] }

// LiveServers returns the number of member servers not marked down.
func (sn *Snapshot) LiveServers() int { return sn.nMember - sn.nDown }

// Member reports whether slot i currently belongs to the cluster.
// Retired slots keep their index (indices are stable across
// membership churn) but are never scheduled.
func (sn *Snapshot) Member(i int) bool {
	return i >= 0 && i < len(sn.member) && sn.member[i]
}

// Draining reports whether server i is draining: a member that
// receives no new mappings while the hidden-load window of its
// outstanding TTLs runs out.
func (sn *Snapshot) Draining(i int) bool {
	return i >= 0 && i < len(sn.draining) && sn.draining[i]
}

// MemberServers returns the number of non-retired slots.
func (sn *Snapshot) MemberServers() int { return sn.nMember }

// available reports whether server i should be considered by a
// selector: a member, live, not draining, and not alarmed — unless
// every eligible server is alarmed, in which case alarms are ignored
// (there is no better candidate). Retired, down, and draining servers
// are never available.
func (sn *Snapshot) available(i int) bool {
	if !sn.member[i] || sn.down[i] || sn.draining[i] {
		return false
	}
	return !sn.alarmed[i] || sn.nAlarmedE == sn.nEligible
}
