package sim

import (
	"fmt"
	"math"

	"dnslb/internal/core"
	"dnslb/internal/engine"
	"dnslb/internal/replication"
	"dnslb/internal/simcore"
)

// The replication extension (Config.Replicas > 1): Run's replica set
// holds R authoritative DNS replicas, each with its own scheduler
// state, policy, estimator, and engine, joined by the same soft-state
// replication protocol the live servers gossip over
// (internal/replication) — here under virtual time with a controllable
// delivery lag and partition windows. This file holds only what exists
// because of replication: the gossip fabric and the per-replica result
// folds, installed when R > 1.
//
// Traffic splits by authority: domain d resolves through replica
// d mod R, and Web server i reports its load — and its crashes,
// recoveries and drain — to replica i mod R; each replica learns the
// rest of the system only through the deltas it merges (a peer's
// Down and Draining standing, and its ledger windows, which merge
// CAS-max into the authority's drain deadline). Every replica
// therefore schedules on a view that is up to one gossip round (plus
// ReplicaLag) stale — ReplMaxWeightDiff and ReplLedgerDivergenceSec in
// Result measure exactly that staleness, and the partition scenarios
// measure the availability the protocol buys: a cut replica keeps
// answering from local state.

// replica is one authoritative DNS: a scheduling engine over its own
// state and policy, plus — only in a set of more than one — the
// replication node that gossips its decisions, standing and hit counts.
type replica struct {
	eng       *engine.Engine
	node      *replication.Node // nil when the set has one replica
	state     *core.State       // eng.State(), read on every sample and miss
	decisions uint64            // counted only when node != nil
}

// authority returns the replica that owns index i of a keyspace split
// across the set: domains for decisions (flash crowds and ECS
// included), servers for everything a server's reports carry — alarms,
// hits, crashes and their detection, drains and retirement — and for
// the sink's reading of its standing. At R = 1 it is replicas[0].
func authority(replicas []*replica, i int) *replica { return replicas[i%len(replicas)] }

// aggregateSched folds the per-replica policy counters into one Stats
// as if a single scheduler had made every decision.
func aggregateSched(replicas []*replica) core.Stats {
	var out core.Stats
	out.PerClass = make(map[core.DomainClass]uint64)
	var ttlWeighted float64
	for _, rep := range replicas {
		s := rep.eng.Policy().Stats()
		if out.PerServer == nil {
			out.PerServer = make([]uint64, len(s.PerServer))
		}
		for i, v := range s.PerServer {
			out.PerServer[i] += v
		}
		for c, v := range s.PerClass {
			out.PerClass[c] += v
		}
		if s.Decisions > 0 {
			ttlWeighted += s.MeanTTL * float64(s.Decisions)
			if out.Decisions == 0 || s.MinTTL < out.MinTTL {
				out.MinTTL = s.MinTTL
			}
			if s.MaxTTL > out.MaxTTL {
				out.MaxTTL = s.MaxTTL
			}
		}
		out.Decisions += s.Decisions
	}
	if out.Decisions > 0 {
		out.MeanTTL = ttlWeighted / float64(out.Decisions)
	}
	return out
}

// collectReplStats fills the replication-specific Result fields: the
// protocol counters summed over nodes, and the horizon-time divergence
// between replica views (weights and hidden-load windows).
func collectReplStats(replicas []*replica, res *Result) {
	res.ReplDecisions = make([]uint64, len(replicas))
	for r, rep := range replicas {
		res.ReplDecisions[r] = rep.decisions
		s := rep.node.Stats()
		res.ReplDeltasApplied += s.DeltasApplied
		res.ReplDeltasDropped += s.DroppedDup + s.DroppedEpoch + s.DroppedSelf
		res.ReplFullSyncs += s.FullSyncsOut
	}
	for a := 0; a < len(replicas); a++ {
		for b := a + 1; b < len(replicas); b++ {
			wa, wb := replicas[a].state.Snapshot().Weights(), replicas[b].state.Snapshot().Weights()
			for j := range wa {
				if d := math.Abs(wa[j] - wb[j]); d > res.ReplMaxWeightDiff {
					res.ReplMaxWeightDiff = d
				}
			}
			n := replicas[a].state.Snapshot().Cluster().N()
			for i := 0; i < n; i++ {
				ea, eb := replicas[a].eng.MappingExpiry(i), replicas[b].eng.MappingExpiry(i)
				if d := math.Abs(ea - eb); d > res.ReplLedgerDivergenceSec {
					res.ReplLedgerDivergenceSec = d
				}
			}
		}
	}
}

// replicaExchange is the virtual-time gossip fabric: every
// ReplicationInterval each node flushes its dirty state and the deltas
// fan out to every peer, delayed by ReplicaLag. While a partition
// window is open the flush still happens — clearing dirty state, like
// the live flushLoop shipping into a dead link — but every delta is
// dropped; the first round after healing leads with full anti-entropy
// snapshots from every replica, exactly the live reconnect behaviour.
type replicaExchange struct {
	sim      *simcore.Simulator
	cfg      Config
	replicas []*replica
	fail     func(error)
	horizon  float64

	pendingFull bool
}

func (x *replicaExchange) install() {
	x.pendingFull = true // first contact leads with a snapshot
	x.sim.Schedule(x.cfg.ReplicationInterval, x.round)
}

func (x *replicaExchange) linkUp(now float64) bool {
	for _, p := range x.cfg.Partitions {
		if now >= p.Start && now < p.End {
			return false
		}
	}
	return true
}

func (x *replicaExchange) round() {
	now := x.sim.Now()
	if !x.linkUp(now) {
		for _, rep := range x.replicas {
			rep.node.Flush()
		}
		x.pendingFull = true
	} else {
		if x.pendingFull {
			for r, rep := range x.replicas {
				x.fanOut(r, rep.node.Snapshot())
			}
			x.pendingFull = false
		}
		for r, rep := range x.replicas {
			x.fanOut(r, rep.node.Flush())
		}
	}
	if now < x.horizon {
		x.sim.Schedule(x.cfg.ReplicationInterval, x.round)
	}
}

func (x *replicaExchange) fanOut(from int, deltas []*replication.Delta) {
	for _, d := range deltas {
		d := d
		for to, rep := range x.replicas {
			if to == from {
				continue
			}
			node := rep.node
			apply := func() {
				if _, err := node.Merge(d); err != nil {
					x.fail(fmt.Errorf("replica merge from %s: %w", d.Origin, err))
				}
			}
			if x.cfg.ReplicaLag > 0 {
				x.sim.Schedule(x.cfg.ReplicaLag, apply)
			} else {
				apply()
			}
		}
	}
}
