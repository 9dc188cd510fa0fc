package replication

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dnslb/internal/core"
	"dnslb/internal/engine"
)

// TimeBase translates between engine-clock seconds and the wire clock
// deltas are stamped in. The simulator's replicas share one virtual
// clock, so the identity base suffices; live replicas each count
// seconds from their own start instant and must go through Unix time.
type TimeBase interface {
	ToWire(engineSec float64) float64
	FromWire(wireSec float64) float64
}

// IdentityBase is the TimeBase for replicas sharing one clock (the
// simulator, or tests stepping a common ManualClock).
type IdentityBase struct{}

// ToWire implements TimeBase.
func (IdentityBase) ToWire(s float64) float64 { return s }

// FromWire implements TimeBase.
func (IdentityBase) FromWire(s float64) float64 { return s }

// WallBase translates a live replica's engine seconds to Unix seconds
// on the wire through its clock (an engine.WallClock or ManualClock).
// Replicas are assumed loosely NTP-synced; a skew of δ seconds shifts
// merged ledger windows by δ, which the adaptive-TTL scheduler absorbs
// the same way it absorbs δ of replication lag.
type WallBase struct {
	Clock interface {
		Time(sec float64) time.Time
		Seconds(t time.Time) float64
	}
}

// ToWire implements TimeBase.
func (b WallBase) ToWire(s float64) float64 {
	t := b.Clock.Time(s)
	return float64(t.UnixNano()) / float64(time.Second)
}

// FromWire implements TimeBase.
func (b WallBase) FromWire(s float64) float64 {
	ns := int64(s * float64(time.Second))
	return b.Clock.Seconds(time.Unix(0, ns))
}

// provenance records who authored a slot's current standing — the
// last-writer-wins register's version vector entry.
type provenance struct {
	epoch  int64
	stamp  float64
	origin string
	// flags as last adjudicated: alarmed, down, draining. Flush compares
	// the engine's current flags against these to detect local writes.
	alarmed, down, draining bool
	set                     bool
}

// wins reports whether a write stamped (epoch, stamp, origin) beats
// this provenance under the LWW order: epoch first (restart fencing),
// then stamp, then origin as a deterministic tie-break.
func (p *provenance) wins(epoch int64, stamp float64, origin string) bool {
	if !p.set {
		return true
	}
	if epoch != p.epoch {
		return epoch > p.epoch
	}
	if stamp != p.stamp {
		return stamp > p.stamp
	}
	return origin > p.origin
}

// peerState is the fencing state kept per remote origin.
type peerState struct {
	epoch int64
	seq   uint64
}

// NodeConfig assembles a Node.
type NodeConfig struct {
	// Origin is this replica's unique id (the -replica-id flag).
	// Required.
	Origin string
	// Epoch fences this replica's writes across restarts: it must be
	// larger than any epoch this origin used before (live servers use
	// start-time Unix nanoseconds). Required (> 0).
	Epoch int64
	// Engine is the scheduling engine whose soft state is replicated.
	// Required.
	Engine *engine.Engine
	// Base translates engine seconds to wire seconds. Required.
	Base TimeBase
	// SlotAddr, when non-nil, annotates outgoing entries with the
	// server's stable address so replicas whose slot order differs
	// still merge correctly; AddrSlot resolves incoming addresses back
	// to local slots (reporting false for servers this replica does not
	// know). Both nil means slot indices are trusted to agree.
	SlotAddr func(slot int) (addr string, ok bool)
	AddrSlot func(addr string) (slot int, ok bool)
}

// Node is one replica's replication endpoint: it watches the local
// engine for soft-state changes (Observe/AddHits feed it, Flush drains
// it), emits versioned deltas, and adjudicates + applies deltas
// received from peers (Merge). It is transport-agnostic: the live
// Replicator and the simulator's exchange loop both drive it.
//
// All methods are safe for concurrent use; Observe is the only one on
// the query hot path and costs one atomic load (plus one store on the
// first decision of an interval).
type Node struct {
	origin string
	epoch  int64
	eng    *engine.Engine
	base   TimeBase

	slotAddr func(int) (string, bool)
	addrSlot func(string) (int, bool)

	ledgerDirty atomic.Bool

	mu          sync.Mutex
	seq         uint64
	lastLedger  []float64 // engine seconds, as last flushed
	prov        []provenance
	pendingHits map[int]float64
	peers       map[string]*peerState

	// Health counters, atomics so metric scrapes never take mu.
	deltasOut     atomic.Uint64
	deltasIn      atomic.Uint64
	deltasApplied atomic.Uint64
	droppedDup    atomic.Uint64
	droppedEpoch  atomic.Uint64
	droppedSelf   atomic.Uint64
	fullSyncsOut  atomic.Uint64
	fullSyncsIn   atomic.Uint64
	entriesMerged atomic.Uint64
}

// NewNode builds a replication node over an engine.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Origin == "" {
		return nil, errors.New("replication: Origin is required")
	}
	if len(cfg.Origin) > 128 {
		return nil, fmt.Errorf("replication: origin %d bytes long, max 128", len(cfg.Origin))
	}
	if cfg.Epoch <= 0 {
		return nil, errors.New("replication: Epoch must be positive")
	}
	if cfg.Engine == nil {
		return nil, errors.New("replication: Engine is required")
	}
	if cfg.Base == nil {
		return nil, errors.New("replication: Base is required")
	}
	if (cfg.SlotAddr == nil) != (cfg.AddrSlot == nil) {
		return nil, errors.New("replication: SlotAddr and AddrSlot must be set together")
	}
	return &Node{
		origin:      cfg.Origin,
		epoch:       cfg.Epoch,
		eng:         cfg.Engine,
		base:        cfg.Base,
		slotAddr:    cfg.SlotAddr,
		addrSlot:    cfg.AddrSlot,
		pendingHits: make(map[int]float64),
		peers:       make(map[string]*peerState),
	}, nil
}

// Observe notes that a scheduling decision extended the mapping
// ledger. It is the engine OnDecision tap: check-then-set on one
// atomic keeps the cache line read-shared on the all-important query
// hot path (the flag is usually already set between flushes).
func (n *Node) Observe(domain int, d core.Decision) {
	if !n.ledgerDirty.Load() {
		n.ledgerDirty.Store(true)
	}
}

// NoteLedger marks the ledger dirty outside the decision path (TTL
// clamps, checkpoint restores).
func (n *Node) NoteLedger() {
	if !n.ledgerDirty.Load() {
		n.ledgerDirty.Store(true)
	}
}

// AddHits accumulates a locally received per-domain hit report for the
// next delta. Hits merged from peers must NOT be teed back through
// AddHits — that would echo them around the mesh.
func (n *Node) AddHits(domain int, hits float64) {
	if domain < 0 || hits <= 0 {
		return
	}
	n.mu.Lock()
	n.pendingHits[domain] += hits
	n.mu.Unlock()
}

// growLocked sizes the per-slot bookkeeping to the engine's current
// cluster (membership can grow at runtime via JOIN).
func (n *Node) growLocked(nServers int) {
	for len(n.lastLedger) < nServers {
		n.lastLedger = append(n.lastLedger, 0)
	}
	for len(n.prov) < nServers {
		n.prov = append(n.prov, provenance{})
	}
}

// entryAddr resolves a slot's wire address annotation ("" when
// address translation is disabled).
func (n *Node) entryAddr(slot int) string {
	if n.slotAddr == nil {
		return ""
	}
	addr, ok := n.slotAddr(slot)
	if !ok {
		return ""
	}
	return addr
}

// Flush drains everything that changed since the previous Flush into
// zero or more deltas (nil when nothing changed): grown ledger
// windows, locally re-adjudicated standing, and pending hit reports.
// Oversized change sets are chunked so every delta encodes under the
// report socket's line limit.
func (n *Node) Flush() []*Delta {
	n.mu.Lock()
	defer n.mu.Unlock()

	sn := n.eng.State().Snapshot()
	nServers := sn.Cluster().N()
	n.growLocked(nServers)

	var ledger []LedgerEntry
	if n.ledgerDirty.Swap(false) {
		for i := 0; i < nServers; i++ {
			exp := n.eng.MappingExpiry(i)
			if exp > n.lastLedger[i] {
				n.lastLedger[i] = exp
				ledger = append(ledger, LedgerEntry{
					Server: i,
					Addr:   n.entryAddr(i),
					Expiry: n.base.ToWire(exp),
				})
			}
		}
	}

	standing := n.collectStandingLocked(sn, false)

	var hits []HitsEntry
	if len(n.pendingHits) > 0 {
		domains := make([]int, 0, len(n.pendingHits))
		for d := range n.pendingHits {
			domains = append(domains, d)
		}
		sort.Ints(domains)
		for _, d := range domains {
			hits = append(hits, HitsEntry{Domain: d, Hits: n.pendingHits[d]})
		}
		n.pendingHits = make(map[int]float64)
	}

	return n.chunkLocked(ledger, standing, hits, false)
}

// Heartbeat returns an empty delta probing link liveness, so an idle
// link still exchanges one message per tick — a cut cable is detected
// within one gossip interval instead of lingering as "connected", and
// a restarted replica's new epoch reaches its peers even before any
// state changes. It always carries sequence number zero: flush and
// per-link delivery run concurrently, so a heartbeat can overtake a
// flushed-but-undelivered delta, and any nonzero sequence would raise
// the receiver's dedup fence past that delta and drop real state.
// Receivers register the epoch, then harmlessly dup-drop the empty
// payload; the sender learns liveness from the write/OK round trip,
// not from the merge outcome.
func (n *Node) Heartbeat() *Delta {
	n.deltasOut.Add(1)
	return &Delta{V: DeltaVersion, Origin: n.origin, Epoch: n.epoch, Seq: 0}
}

// Snapshot captures the node's complete mergeable state as full
// (anti-entropy) deltas: every non-empty ledger window and every
// member slot's standing under its original writer's stamp, so
// forwarding a snapshot never promotes this replica to author of state
// it merely relayed. Hit increments are interval-scoped, not state,
// and are never snapshotted.
func (n *Node) Snapshot() []*Delta {
	n.mu.Lock()
	defer n.mu.Unlock()

	sn := n.eng.State().Snapshot()
	nServers := sn.Cluster().N()
	n.growLocked(nServers)

	var ledger []LedgerEntry
	for i := 0; i < nServers; i++ {
		if exp := n.eng.MappingExpiry(i); exp > 0 {
			if exp > n.lastLedger[i] {
				n.lastLedger[i] = exp
			}
			ledger = append(ledger, LedgerEntry{
				Server: i,
				Addr:   n.entryAddr(i),
				Expiry: n.base.ToWire(exp),
			})
		}
	}
	standing := n.collectStandingLocked(sn, true)
	deltas := n.chunkLocked(ledger, standing, nil, true)
	n.fullSyncsOut.Add(uint64(len(deltas)))
	return deltas
}

// collectStandingLocked detects local standing writes (engine flags
// that differ from the last adjudicated provenance) and stamps them as
// this node's own; with full set it additionally re-gossips unchanged
// slots under their original stamps.
func (n *Node) collectStandingLocked(sn *core.Snapshot, full bool) []StandingEntry {
	now := n.base.ToWire(n.eng.Now())
	var out []StandingEntry
	for i := 0; i < sn.Cluster().N(); i++ {
		if !sn.Member(i) {
			continue
		}
		alarmed, down, draining := sn.Alarmed(i), sn.Down(i), sn.Draining(i)
		p := &n.prov[i]
		changed := !p.set && (alarmed || down || draining) ||
			p.set && (p.alarmed != alarmed || p.down != down || p.draining != draining)
		if changed {
			// A local write: claim authorship with a fresh stamp.
			*p = provenance{
				epoch: n.epoch, stamp: now, origin: n.origin,
				alarmed: alarmed, down: down, draining: draining, set: true,
			}
		}
		if changed || full {
			out = append(out, StandingEntry{
				Server: i, Addr: n.entryAddr(i),
				Alarmed: alarmed, Down: down, Draining: draining,
				Epoch: p.epoch, Stamp: p.stamp, Origin: p.origin,
			})
		}
	}
	return out
}

// chunkLocked packs entries into deltas of at most maxDeltaEntries
// each, stamping each with the next sequence number.
func (n *Node) chunkLocked(ledger []LedgerEntry, standing []StandingEntry, hits []HitsEntry, full bool) []*Delta {
	if len(ledger) == 0 && len(standing) == 0 && len(hits) == 0 && !full {
		return nil
	}
	var out []*Delta
	for {
		d := &Delta{V: DeltaVersion, Origin: n.origin, Epoch: n.epoch, Full: full}
		room := maxDeltaEntries
		take := func(k int) int {
			if k > room {
				k = room
			}
			room -= k
			return k
		}
		k := take(len(ledger))
		d.Ledger, ledger = ledger[:k], ledger[k:]
		k = take(len(standing))
		d.Standing, standing = standing[:k], standing[k:]
		k = take(len(hits))
		d.Hits, hits = hits[:k], hits[k:]
		n.seq++
		d.Seq = n.seq
		out = append(out, d)
		n.deltasOut.Add(1)
		if len(ledger) == 0 && len(standing) == 0 && len(hits) == 0 {
			return out
		}
	}
}

// MergeStats summarizes one Merge call for metrics and tests.
type MergeStats struct {
	// Applied is false when the delta was dropped whole (echo,
	// duplicate, or stale epoch).
	Applied bool
	// Dropped, when Applied is false, names why: "self", "dup",
	// "epoch".
	Dropped string
	// Mappings, Standing, Hits count applied entries.
	Mappings, Standing, Hits int
}

// Merge adjudicates and applies one peer delta: origin fencing first
// (drop echoes of our own deltas, replays within an epoch, and
// anything from a stale epoch), then per-entry translation and
// last-writer-wins adjudication, then a single engine.MergeRemote with
// the surviving entries. Losing or untranslatable entries are skipped
// silently — that is the CRDT contract, not an error.
func (n *Node) Merge(d *Delta) (MergeStats, error) {
	if err := d.Validate(); err != nil {
		return MergeStats{}, err
	}
	n.deltasIn.Add(1)
	if d.Origin == n.origin {
		n.droppedSelf.Add(1)
		return MergeStats{Dropped: "self"}, nil
	}

	n.mu.Lock()
	ps := n.peers[d.Origin]
	if ps == nil {
		ps = &peerState{}
		n.peers[d.Origin] = ps
	}
	if d.Epoch < ps.epoch {
		n.mu.Unlock()
		n.droppedEpoch.Add(1)
		return MergeStats{Dropped: "epoch"}, nil
	}
	if d.Epoch > ps.epoch {
		ps.epoch = d.Epoch
		ps.seq = 0
	}
	// Full snapshots are idempotent and carry no increments, so a
	// replayed one is safe to re-apply; incremental deltas at or below
	// the fence are duplicates.
	if !d.Full && d.Seq <= ps.seq {
		n.mu.Unlock()
		n.droppedDup.Add(1)
		return MergeStats{Dropped: "dup"}, nil
	}
	if d.Seq > ps.seq {
		ps.seq = d.Seq
	}
	if d.Full {
		n.fullSyncsIn.Add(1)
	}

	sn := n.eng.State().Snapshot()
	n.growLocked(sn.Cluster().N())

	var rd engine.RemoteDelta
	var stats MergeStats
	stats.Applied = true
	for _, e := range d.Ledger {
		slot, ok := n.resolveSlot(e.Server, e.Addr)
		if !ok {
			continue
		}
		rd.Mappings = append(rd.Mappings, engine.RemoteMapping{
			Server: slot,
			Expiry: n.base.FromWire(e.Expiry),
		})
		stats.Mappings++
	}
	type pendingProv struct {
		slot  int
		entry StandingEntry
	}
	var won []pendingProv
	for _, e := range d.Standing {
		slot, ok := n.resolveSlot(e.Server, e.Addr)
		if !ok || slot >= len(n.prov) {
			continue
		}
		if !n.prov[slot].wins(e.Epoch, e.Stamp, e.Origin) {
			continue
		}
		rd.Standing = append(rd.Standing, engine.RemoteStanding{
			Server:   slot,
			Alarmed:  e.Alarmed,
			Down:     e.Down,
			Draining: e.Draining,
		})
		won = append(won, pendingProv{slot: slot, entry: e})
		stats.Standing++
	}
	for _, e := range d.Hits {
		rd.Hits = append(rd.Hits, engine.RemoteHits{Domain: e.Domain, Hits: e.Hits})
		stats.Hits++
	}
	n.mu.Unlock()

	err := n.eng.MergeRemote(rd)

	// Record provenance only for entries the engine verifiably applied:
	// a write refused by a safety rail (last-live or last-schedulable
	// guard) keeps its old provenance so the peer's re-gossip can win
	// later, and the refusal is never re-stamped as a local write of ours.
	after := n.eng.State().Snapshot()
	n.mu.Lock()
	for _, w := range won {
		e := w.entry
		if w.slot >= after.Cluster().N() || !after.Member(w.slot) {
			continue
		}
		if after.Alarmed(w.slot) == e.Alarmed && after.Down(w.slot) == e.Down && after.Draining(w.slot) == e.Draining {
			n.prov[w.slot] = provenance{
				epoch: e.Epoch, stamp: e.Stamp, origin: e.Origin,
				alarmed: e.Alarmed, down: e.Down, draining: e.Draining, set: true,
			}
		}
	}
	n.mu.Unlock()

	if stats.Mappings > 0 {
		// Merged windows may exceed what we last gossiped; let the next
		// Flush re-announce them (receivers dedup by CAS-max anyway).
		n.NoteLedger()
	}
	n.deltasApplied.Add(1)
	n.entriesMerged.Add(uint64(stats.Mappings + stats.Standing + stats.Hits))
	return stats, err
}

// resolveSlot maps a wire entry to a local slot, preferring the
// address annotation when both sides translate addresses.
func (n *Node) resolveSlot(server int, addr string) (int, bool) {
	if n.addrSlot != nil && addr != "" {
		return n.addrSlot(addr)
	}
	if server < 0 {
		return 0, false
	}
	return server, true
}

// Stats is a point-in-time view of the node's health counters.
type Stats struct {
	DeltasOut, DeltasIn, DeltasApplied    uint64
	DroppedDup, DroppedEpoch, DroppedSelf uint64
	FullSyncsOut, FullSyncsIn             uint64
	EntriesMerged                         uint64
}

// Stats returns the node's counters (monotonic since creation).
func (n *Node) Stats() Stats {
	return Stats{
		DeltasOut:     n.deltasOut.Load(),
		DeltasIn:      n.deltasIn.Load(),
		DeltasApplied: n.deltasApplied.Load(),
		DroppedDup:    n.droppedDup.Load(),
		DroppedEpoch:  n.droppedEpoch.Load(),
		DroppedSelf:   n.droppedSelf.Load(),
		FullSyncsOut:  n.fullSyncsOut.Load(),
		FullSyncsIn:   n.fullSyncsIn.Load(),
		EntriesMerged: n.entriesMerged.Load(),
	}
}
