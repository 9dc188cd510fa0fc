package engine

import (
	"errors"
	"fmt"
	"math"

	"dnslb/internal/core"
)

// Multi-replica soft-state merging: when N engines schedule the same
// population behind an NS set, each replica's soft state — the
// hidden-load ledger, the per-server standing flags, and the hidden-load
// hit counts feeding the estimator — must converge without coordination.
// MergeRemote is the engine-side entry point: it applies a peer
// replica's already-adjudicated delta with commutative, idempotent
// operations only (CAS-max on ledger windows, flag assignment on
// standing, addition on hit counts), so replicas merging each other's
// deltas in any order and any number of times reach the same state.
//
// The protocol brains — per-origin sequence fencing, epoch fencing of
// restarted replicas, last-writer-wins adjudication of standing, and
// wall-clock translation — live one layer up (internal/replication);
// MergeRemote trusts its input to have won those arguments already.

// RemoteMapping is one peer-observed outstanding-mapping window:
// server slot → latest expiry in this engine's clock seconds.
type RemoteMapping struct {
	Server int
	Expiry float64
}

// RemoteStanding is one peer-adjudicated server standing: the
// alarm/down/draining flags the replica set should converge on.
type RemoteStanding struct {
	Server   int
	Alarmed  bool
	Down     bool
	Draining bool
}

// RemoteHits is one peer-observed per-domain hit count for the
// hidden-load estimator.
type RemoteHits struct {
	Domain int
	Hits   float64
}

// RemoteDelta is a peer replica's soft-state delta, translated to this
// engine's clock base and already fenced/adjudicated by the caller.
type RemoteDelta struct {
	Mappings []RemoteMapping
	Standing []RemoteStanding
	Hits     []RemoteHits
}

// MergeRemote folds a peer replica's soft state into this engine:
//
//   - mapping windows merge CAS-max into the ledger (never shrink);
//   - standing flags are assigned, with two safety rails: entries for
//     slots this engine does not consider members are skipped (each
//     replica's operator config is authoritative for its membership),
//     and a remote down=true that would take out the last live server,
//     or a remote drain core.State refuses as the last schedulable one,
//     is skipped whole — a partitioned peer's poisoned view must never
//     make this replica refuse queries (graceful-degradation invariant);
//   - hit counts accumulate into the estimator (a no-op without one).
//
// Out-of-range and non-finite entries are skipped, not errors: a peer
// may legitimately know slots this replica has not admitted yet, and a
// soft-state merge must never wedge on a partially applicable delta.
// The returned error is the first hard application failure, with the
// rest of the delta still applied (merging is per-entry idempotent, so
// the next anti-entropy round retries what failed).
func (e *Engine) MergeRemote(d RemoteDelta) error {
	for _, m := range d.Mappings {
		if m.Server < 0 || math.IsNaN(m.Expiry) || math.IsInf(m.Expiry, 0) {
			continue
		}
		e.ledger.Extend(m.Server, m.Expiry)
	}
	var firstErr error
	st := e.policy.State()
	for _, rs := range d.Standing {
		sn := st.Snapshot()
		if rs.Server < 0 || rs.Server >= sn.Cluster().N() || !sn.Member(rs.Server) {
			continue
		}
		if rs.Down && !sn.Down(rs.Server) && sn.LiveServers() <= 1 {
			// Refusing the write keeps this replica scheduling; the
			// peer's view re-gossips next round and applies once another
			// server is live again.
			continue
		}
		switch {
		case rs.Draining && !sn.Draining(rs.Server):
			err := st.DrainServer(rs.Server)
			if errors.Is(err, core.ErrLastSchedulable) {
				continue // the same rail as a refused down, for the same reason
			}
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("engine: merge drain for server %d: %w", rs.Server, err)
			}
		case !rs.Draining && sn.Draining(rs.Server):
			// A peer observed the drain cancelled (re-JOIN): reinstate at
			// the locally known capacity. ReinstateServer clears the
			// alarm/down flags the entry then sets.
			if err := st.ReinstateServer(rs.Server, sn.Cluster().Capacity(rs.Server)); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("engine: merge reinstate for server %d: %w", rs.Server, err)
				}
				continue
			}
		}
		if err := st.SetAlarm(rs.Server, rs.Alarmed); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("engine: merge alarm for server %d: %w", rs.Server, err)
		}
		if err := st.SetDown(rs.Server, rs.Down); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("engine: merge liveness for server %d: %w", rs.Server, err)
		}
	}
	for _, h := range d.Hits {
		if h.Hits < 0 || math.IsNaN(h.Hits) || math.IsInf(h.Hits, 0) {
			continue
		}
		e.RecordHits(h.Domain, h.Hits)
	}
	return firstErr
}
