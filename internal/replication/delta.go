// Package replication makes N dnslb-server replicas converge on one
// soft-state view without coordination. Each replica asynchronously
// gossips versioned deltas of its engine soft state — hidden-load
// ledger windows, per-server standing (alarm/down/draining), and
// estimator hit reports — over the existing report-socket transport
// (one `REPL <json>` line per delta, answered `OK`), through the same
// client link as a backend's report agent (internal/reportlink).
//
// Convergence is CRDT-style, never consensus:
//
//   - ledger windows merge CAS-max (monotone, commutative, idempotent);
//   - standing is a per-slot last-writer-wins register fenced by the
//     writer's (epoch, stamp, origin) — a restarted replica bumps its
//     epoch, so its pre-crash writes can never override post-crash
//     state;
//   - hit reports are increments, deduplicated by the per-origin
//     sequence number every delta but a heartbeat carries.
//
// Robustness is the design center: a replica that loses every peer
// keeps scheduling from local state (it never refuses queries), and a
// peer link that heals resyncs via a full-state anti-entropy snapshot,
// so arbitrarily long partitions converge in one round after healing.
package replication

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
)

// DeltaVersion is the wire format version this build speaks. A decoder
// rejects other versions; mixed-version replica sets must be upgraded
// in place (soft state is reconstructible, so a restart is cheap).
const DeltaVersion = 1

// maxDeltaEntries bounds the total entries a single delta may carry —
// both a parser hardening limit (a hostile line cannot allocate
// unboundedly) and the chunking threshold emitters stay under so an
// encoded delta fits the report socket's 64 KiB line limit with wide
// margin.
const maxDeltaEntries = 512

// LedgerEntry is one outstanding-mapping window: the latest expiry
// (wire clock seconds) of server Server / address Addr.
type LedgerEntry struct {
	Server int     `json:"s"`
	Addr   string  `json:"addr,omitempty"`
	Expiry float64 `json:"e"`
}

// StandingEntry is one server's alarm/down/draining standing, stamped
// with its writer so receivers can adjudicate last-writer-wins: Epoch
// fences replica restarts, Stamp orders writes within an epoch (wire
// clock seconds), Origin breaks exact ties deterministically.
type StandingEntry struct {
	Server   int     `json:"s"`
	Addr     string  `json:"addr,omitempty"`
	Alarmed  bool    `json:"a,omitempty"`
	Down     bool    `json:"d,omitempty"`
	Draining bool    `json:"dr,omitempty"`
	Epoch    int64   `json:"ep"`
	Stamp    float64 `json:"ts"`
	Origin   string  `json:"o"`
}

// HitsEntry is one domain's hit-count increment for the hidden-load
// estimator, observed by the origin replica since its previous delta.
type HitsEntry struct {
	Domain int     `json:"dom"`
	Hits   float64 `json:"h"`
}

// Delta is one replication message: a versioned, origin-stamped batch
// of soft-state changes. Seq increases by one per delta an origin
// emits within an epoch, letting receivers drop duplicates and
// replays; Full marks an anti-entropy snapshot (complete state, safe
// to re-apply, never carrying hit increments).
type Delta struct {
	V        int             `json:"v"`
	Origin   string          `json:"origin"`
	Epoch    int64           `json:"epoch"`
	Seq      uint64          `json:"seq"`
	Full     bool            `json:"full,omitempty"`
	Ledger   []LedgerEntry   `json:"ledger,omitempty"`
	Standing []StandingEntry `json:"standing,omitempty"`
	Hits     []HitsEntry     `json:"hits,omitempty"`
}

// ErrVersion reports a delta from a replica speaking a different wire
// version.
var ErrVersion = errors.New("replication: unsupported delta version")

// Encode renders the delta as a single JSON line (no trailing newline)
// — the payload of a `REPL` report-socket command.
func (d *Delta) Encode() ([]byte, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(d)
}

// ParseDelta decodes and validates one wire delta. It is strict about
// everything a hostile or corrupted line could abuse — unknown fields,
// non-finite floats, negative indices, oversized batches — because the
// report socket accepts unauthenticated peers.
func ParseDelta(line []byte) (*Delta, error) {
	dec := json.NewDecoder(strings.NewReader(string(line)))
	dec.DisallowUnknownFields()
	var d Delta
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("replication: parse delta: %w", err)
	}
	if dec.More() {
		return nil, errors.New("replication: trailing data after delta")
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Validate checks the structural invariants shared by encode and
// decode.
func (d *Delta) Validate() error {
	if d.V != DeltaVersion {
		return fmt.Errorf("%w: got %d, want %d", ErrVersion, d.V, DeltaVersion)
	}
	if d.Origin == "" {
		return errors.New("replication: delta without origin")
	}
	if len(d.Origin) > 128 {
		return fmt.Errorf("replication: origin %d bytes long, max 128", len(d.Origin))
	}
	if d.Epoch < 0 {
		return fmt.Errorf("replication: negative epoch %d", d.Epoch)
	}
	if n := len(d.Ledger) + len(d.Standing) + len(d.Hits); n > maxDeltaEntries {
		return fmt.Errorf("replication: delta carries %d entries, max %d", n, maxDeltaEntries)
	}
	for i, e := range d.Ledger {
		if e.Server < 0 {
			return fmt.Errorf("replication: ledger entry %d has negative server %d", i, e.Server)
		}
		if math.IsNaN(e.Expiry) || math.IsInf(e.Expiry, 0) {
			return fmt.Errorf("replication: ledger entry %d has non-finite expiry", i)
		}
	}
	for i, e := range d.Standing {
		if e.Server < 0 {
			return fmt.Errorf("replication: standing entry %d has negative server %d", i, e.Server)
		}
		if e.Epoch < 0 {
			return fmt.Errorf("replication: standing entry %d has negative epoch", i)
		}
		if math.IsNaN(e.Stamp) || math.IsInf(e.Stamp, 0) {
			return fmt.Errorf("replication: standing entry %d has non-finite stamp", i)
		}
		if len(e.Origin) > 128 {
			return fmt.Errorf("replication: standing entry %d origin too long", i)
		}
	}
	for i, e := range d.Hits {
		if e.Domain < 0 {
			return fmt.Errorf("replication: hits entry %d has negative domain %d", i, e.Domain)
		}
		if e.Hits < 0 || math.IsNaN(e.Hits) || math.IsInf(e.Hits, 0) {
			return fmt.Errorf("replication: hits entry %d has invalid count", i)
		}
	}
	return nil
}
