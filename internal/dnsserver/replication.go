package dnsserver

import (
	"errors"
	"fmt"
	"time"

	"dnslb/internal/metrics"
	"dnslb/internal/replication"
)

// Multi-replica wiring (Config.Replication): New attaches a
// replication.Node to the server's engine and builds the Replicator that
// gossips its deltas to the peer replicas' report sockets; Start launches
// the links and Shutdown stops them. Incoming deltas arrive on this
// server's own report socket as REPL lines (see report.go) and are merged
// through the node's fencing/LWW adjudication.
//
// Replication is strictly additive to scheduling: with zero peers
// reachable the server keeps answering from local state — the
// degradation ladder is "converged → stale → local-only", never
// "refusing".

// ReplicationConfig configures a server's replication endpoint.
type ReplicationConfig struct {
	// ReplicaID uniquely names this replica in the set (-replica-id).
	// Required with Peers.
	ReplicaID string
	// Peers are the other replicas' report-socket addresses (-peers).
	// None means a lone server: replication is off.
	Peers []string
	// Interval is the gossip cadence (-replication-interval). Zero
	// defaults to 1s.
	Interval time.Duration
}

// newReplication builds the node and its replicator. The node sees every
// decision from the first query on; what was restored before the links
// start is announced with their first flush (see Start).
func (s *Server) newReplication(cfg ReplicationConfig) error {
	node, err := replication.NewNode(replication.NodeConfig{
		Origin: cfg.ReplicaID,
		// The epoch fences this replica's writes across restarts: Unix
		// time in nanoseconds is monotone across restarts on any sanely
		// clocked host.
		Epoch:  time.Now().UnixNano(),
		Engine: s.eng,
		Base:   replication.WallBase{Clock: s.clock},
		SlotAddr: func(slot int) (string, bool) {
			addrs := s.serverAddrs()
			if slot < 0 || slot >= len(addrs) {
				return "", false
			}
			return addrs[slot].String(), true
		},
		AddrSlot: func(addr string) (int, bool) {
			for i, a := range s.serverAddrs() {
				if a.String() == addr {
					return i, true
				}
			}
			return 0, false
		},
	})
	if err != nil {
		return err
	}
	repl, err := replication.NewReplicator(replication.ReplicatorConfig{
		Node:     node,
		Peers:    cfg.Peers,
		Interval: cfg.Interval,
		Logger:   s.logger,
	})
	if err != nil {
		return err
	}
	s.replNode, s.replicator = node, repl
	if s.registry != nil {
		registerReplicationMetrics(s.registry, cfg.ReplicaID, node, repl)
	}
	return nil
}

// mergeReplLine handles one REPL report-socket line: parse, fence,
// merge. A server that is not a replica has no node and rejects it.
func (s *Server) mergeReplLine(payload string) error {
	n := s.replNode
	if n == nil {
		return errors.New("replication not enabled")
	}
	d, err := replication.ParseDelta([]byte(payload))
	if err != nil {
		return err
	}
	if _, err := n.Merge(d); err != nil {
		return fmt.Errorf("merge delta from %s: %w", d.Origin, err)
	}
	return nil
}

// registerReplicationMetrics exposes the dnslb_repl_* series: node
// protocol counters, per-peer link health, and the degraded gauge. All
// readers are scrape-time atomics — replication adds no per-query
// metric work.
func registerReplicationMetrics(reg *metrics.Registry, replicaID string, node *replication.Node, repl *replication.Replicator) {
	idLbl := metrics.Labels{"replica", replicaID}
	reg.NewCounterFunc("dnslb_repl_deltas_out_total",
		"Replication deltas emitted (flushes and snapshots, before per-peer fan-out).",
		idLbl, func() uint64 { return node.Stats().DeltasOut })
	reg.NewCounterFunc("dnslb_repl_deltas_in_total",
		"Replication deltas received on the report socket.",
		idLbl, func() uint64 { return node.Stats().DeltasIn })
	reg.NewCounterFunc("dnslb_repl_deltas_applied_total",
		"Received deltas that passed fencing and were merged.",
		idLbl, func() uint64 { return node.Stats().DeltasApplied })
	for _, reason := range []struct {
		name string
		load func() uint64
	}{
		{"duplicate", func() uint64 { return node.Stats().DroppedDup }},
		{"stale_epoch", func() uint64 { return node.Stats().DroppedEpoch }},
		{"self_echo", func() uint64 { return node.Stats().DroppedSelf }},
	} {
		reg.NewCounterFunc("dnslb_repl_deltas_dropped_total",
			"Received deltas dropped whole by fencing, by reason.",
			metrics.Labels{"replica", replicaID, "reason", reason.name}, reason.load)
	}
	reg.NewCounterFunc("dnslb_repl_entries_merged_total",
		"Individual ledger/standing/hits entries applied from peers.",
		idLbl, func() uint64 { return node.Stats().EntriesMerged })
	reg.NewCounterFunc("dnslb_repl_full_syncs_total",
		"Anti-entropy snapshot deltas, by direction.",
		metrics.Labels{"replica", replicaID, "direction", "out"},
		func() uint64 { return node.Stats().FullSyncsOut })
	reg.NewCounterFunc("dnslb_repl_full_syncs_total",
		"Anti-entropy snapshot deltas, by direction.",
		metrics.Labels{"replica", replicaID, "direction", "in"},
		func() uint64 { return node.Stats().FullSyncsIn })
	reg.NewGaugeFunc("dnslb_repl_connected_peers",
		"Peer links currently established.",
		idLbl, func() float64 { return float64(repl.ConnectedPeers()) })
	reg.NewGaugeFunc("dnslb_repl_degraded",
		"1 while every peer link is down and the replica schedules from local state only.",
		idLbl, func() float64 { return boolGauge(repl.Degraded()) })
	for i, addr := range repl.Peers() {
		i := i
		peerLbl := metrics.Labels{"peer", addr}
		health := func() replication.PeerHealth { return repl.Health()[i] }
		reg.NewGaugeFunc("dnslb_repl_peer_connected",
			"1 while the link to this peer is established.", peerLbl,
			func() float64 { return boolGauge(health().Connected) })
		reg.NewCounterFunc("dnslb_repl_peer_sent_total",
			"Deltas acknowledged by this peer.", peerLbl,
			func() uint64 { return health().Sent })
		reg.NewCounterFunc("dnslb_repl_peer_errors_total",
			"Send or dial failures on this peer link.", peerLbl,
			func() uint64 { return health().SendErrors })
		reg.NewCounterFunc("dnslb_repl_peer_dropped_total",
			"Outbound deltas dropped on queue overflow (superseded by the next full sync).",
			peerLbl, func() uint64 { return health().Drops })
	}
}
