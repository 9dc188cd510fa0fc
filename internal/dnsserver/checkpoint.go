package dnsserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"dnslb/internal/core"
)

// Checkpoint/restore: the DNS's soft state — the hidden-load weight
// estimates it learned from server reports, the alarm/down/draining
// standing of every slot, and the selectors' rotation cursors — is
// serialized to the JSON file Config.CheckpointPath names, every
// Config.CheckpointInterval and at shutdown, and restored by Start, so a
// restart does not reset the domain weights to uniform (which would
// hand hot domains long TTLs until the estimator relearns).
//
// A checkpoint is advisory, never authoritative: restore validates it
// against the running configuration (format version, zone, policy,
// domain count, staleness) and falls back to a clean cold start on any
// mismatch. Server state is matched by address, not index, so a config
// change between save and restore degrades gracefully — unmatched
// servers just start cold.

// checkpointVersion is the on-disk format version; bump on any
// incompatible change to the Checkpoint schema.
const checkpointVersion = 1

// Checkpoint is the serialized soft state of a Server.
type Checkpoint struct {
	Version   int       `json:"version"`
	SavedAt   time.Time `json:"saved_at"`
	Zone      string    `json:"zone"`
	Policy    string    `json:"policy"`
	Domains   int       `json:"domains"`
	Weights   []float64 `json:"weights"`
	Estimator core.EstimatorState
	Cursors   []int64            `json:"cursors,omitempty"`
	Servers   []ServerCheckpoint `json:"servers"`
}

// ServerCheckpoint is one slot's membership and feedback standing.
// Retired slots are serialized too (Member=false) so a re-JOIN after
// restart can reclaim the same index.
type ServerCheckpoint struct {
	Addr      string    `json:"addr"`
	Capacity  float64   `json:"capacity"`
	Member    bool      `json:"member"`
	Draining  bool      `json:"draining"`
	Alarmed   bool      `json:"alarmed"`
	Down      bool      `json:"down"`
	ExpiresAt time.Time `json:"expires_at,omitempty"` // hidden-load window end
}

// Checkpoint captures the server's current soft state.
func (s *Server) Checkpoint() *Checkpoint {
	st := s.policy.State()
	sn := st.Snapshot()
	addrs := s.serverAddrs()
	cp := &Checkpoint{
		Version: checkpointVersion,
		SavedAt: time.Now(),
		Zone:    s.zone,
		Policy:  s.policy.Name(),
		Domains: sn.Domains(),
		Weights: sn.Weights(),
		Cursors: s.policy.Cursors(),
		Servers: make([]ServerCheckpoint, len(addrs)),
	}
	if est, ok := s.eng.EstimatorState(); ok {
		cp.Estimator = est
	}
	for i, a := range addrs {
		cp.Servers[i] = ServerCheckpoint{
			Addr:      a.String(),
			Capacity:  sn.Cluster().Capacity(i),
			Member:    sn.Member(i),
			Draining:  sn.Draining(i),
			Alarmed:   sn.Alarmed(i),
			Down:      sn.Down(i),
			ExpiresAt: s.MappingExpiry(i),
		}
	}
	return cp
}

// WriteCheckpoint atomically serializes the current soft state to
// path (write to a temp file in the same directory, then rename).
func (s *Server) WriteCheckpoint(path string) error {
	cp := s.Checkpoint()
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		s.ckptErrs.Add(1)
		return fmt.Errorf("dnsserver: encode checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*")
	if err != nil {
		s.ckptErrs.Add(1)
		return fmt.Errorf("dnsserver: checkpoint temp file: %w", err)
	}
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(tmp.Name())
		s.ckptErrs.Add(1)
		return fmt.Errorf("dnsserver: write checkpoint: %w", errors.Join(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		s.ckptErrs.Add(1)
		return fmt.Errorf("dnsserver: install checkpoint: %w", err)
	}
	s.ckptSaves.Add(1)
	return nil
}

// LoadCheckpoint reads and decodes a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cp, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("dnsserver: corrupt checkpoint %s: %w", path, err)
	}
	return cp, nil
}

// decodeCheckpoint decodes a checkpoint file's bytes; RestoreCheckpoint
// validates what it decodes.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, err
	}
	return &cp, nil
}

// RestoreCheckpoint applies a checkpoint's soft state to the server.
// It validates everything before mutating anything, so a rejected
// checkpoint leaves the server in its cold-start state:
//
//   - the format version must match;
//   - zone, policy name, and domain count must match the running
//     configuration;
//   - the checkpoint must be younger than maxAge (0 disables the check);
//   - the weights must be non-negative and finite, with a positive
//     finite sum, and the estimator state must restore.
//
// Server standing is matched by address: member slots whose address
// appears in the current table get their persisted hidden-load window,
// their alarm/down flags and (for a slot that was draining) a resumed
// drain; checkpointed servers unknown to the current config are
// skipped with a log line (the config is authoritative for membership).
//
// Start does this for Config.CheckpointPath, at the one point of its
// order where it is safe; a direct call belongs before Start.
func (s *Server) RestoreCheckpoint(cp *Checkpoint, maxAge time.Duration) error {
	if cp == nil {
		return errors.New("dnsserver: nil checkpoint")
	}
	if cp.Version != checkpointVersion {
		return fmt.Errorf("dnsserver: checkpoint format v%d, want v%d", cp.Version, checkpointVersion)
	}
	if cp.Zone != s.zone {
		return fmt.Errorf("dnsserver: checkpoint for zone %q, serving %q", cp.Zone, s.zone)
	}
	if cp.Policy != s.policy.Name() {
		return fmt.Errorf("dnsserver: checkpoint for policy %q, running %q", cp.Policy, s.policy.Name())
	}
	st := s.policy.State()
	if n := st.Snapshot().Domains(); cp.Domains != n {
		return fmt.Errorf("dnsserver: checkpoint has %d domains, state has %d", cp.Domains, n)
	}
	if maxAge > 0 {
		age := time.Since(cp.SavedAt)
		if age > maxAge {
			return fmt.Errorf("dnsserver: checkpoint is %v old, max %v", age.Round(time.Second), maxAge)
		}
		if age < -maxAge {
			return fmt.Errorf("dnsserver: checkpoint from the future (%v)", cp.SavedAt)
		}
	}
	if len(cp.Weights) != cp.Domains {
		return fmt.Errorf("dnsserver: checkpoint has %d weights for %d domains", len(cp.Weights), cp.Domains)
	}
	var sum float64
	for _, w := range cp.Weights {
		if !(w >= 0 && w <= math.MaxFloat64) {
			return fmt.Errorf("dnsserver: checkpoint weight %v, want non-negative finite", w)
		}
		sum += w
	}
	if !(sum > 0 && sum <= math.MaxFloat64) {
		return fmt.Errorf("dnsserver: checkpoint weights sum to %v", sum)
	}

	// Validation done — apply. Estimator first (it re-derives weights on
	// the next roll); a shape mismatch here still leaves weights cold.
	if err := s.eng.RestoreEstimator(cp.Estimator); err != nil {
		return fmt.Errorf("dnsserver: checkpoint estimator: %w", err)
	}
	if err := st.SetWeights(cp.Weights); err != nil {
		return fmt.Errorf("dnsserver: checkpoint weights: %w", err)
	}
	if cp.Cursors != nil && !s.policy.RestoreCursors(cp.Cursors) {
		s.logger.Warn("checkpoint cursors not restorable; selector starts fresh",
			"cursors", len(cp.Cursors))
	}

	byAddr := make(map[netip.Addr]int, s.Servers())
	for i, a := range s.serverAddrs() {
		byAddr[a] = i
	}
	s.reconfigMu.Lock()
	defer s.reconfigMu.Unlock()
	sn := st.Snapshot()
	for _, scp := range cp.Servers {
		addr, err := netip.ParseAddr(scp.Addr)
		if err != nil {
			s.logger.Warn("checkpoint server has bad address; skipped", "addr", scp.Addr)
			continue
		}
		i, ok := byAddr[addr]
		if !ok || !sn.Member(i) {
			if scp.Member {
				s.logger.Info("checkpoint server not in current config; starting cold", "addr", scp.Addr)
			}
			continue
		}
		if !scp.Member {
			continue // was retired at save time; current config revived it
		}
		// Mappings handed out before the restart are still cached
		// downstream until ExpiresAt, so a drain after the restart must
		// wait for them (NoteMapping is a CAS-max, so a shorter persisted
		// window never shrinks a live one).
		if exp := s.clock.Seconds(scp.ExpiresAt); exp > s.clock.Now() {
			s.eng.NoteMapping(i, exp)
		}
		if scp.Alarmed {
			_ = st.SetAlarm(i, true)
		}
		if scp.Down {
			// Restore the exclusion as a passive detector vote (not a raw
			// state flag): the combiner then owns the flag's lifecycle, so
			// the backend's next report withdraws the vote and re-admits it
			// only if the active prober (when running) also agrees.
			_ = s.voteDown(detectorPassive, i, true)
		}
		if scp.Draining {
			if _, err := s.drainLocked(i); err != nil {
				s.logger.Warn("checkpoint drain not resumable", "server", i, "err", err)
			}
		}
	}
	return nil
}

// restoreCheckpoint warm-starts the server from its checkpoint file.
// Every failure mode — missing, unreadable, corrupt, stale, or mismatched
// with the running configuration — logs and leaves the server in its
// cold-start state; a checkpoint is advisory, never required.
func (s *Server) restoreCheckpoint() {
	path := s.cfg.CheckpointPath
	cp, err := LoadCheckpoint(path)
	if err == nil {
		err = s.RestoreCheckpoint(cp, s.cfg.CheckpointMaxAge)
	}
	switch {
	case errors.Is(err, os.ErrNotExist):
		s.logger.Info("no checkpoint; cold start", "path", path)
	case err != nil:
		s.logger.Warn("checkpoint unusable; cold start", "path", path, "err", err)
	default:
		s.logger.Info("checkpoint restored", "path", path, "saved_at", cp.SavedAt.Format(time.RFC3339))
	}
}

// saveCheckpoint writes the checkpoint file, periodically and at
// shutdown; a failed write is logged (and counted) and the next one
// tries again.
func (s *Server) saveCheckpoint() {
	if err := s.WriteCheckpoint(s.cfg.CheckpointPath); err != nil {
		s.logger.Warn("checkpoint not written", "path", s.cfg.CheckpointPath, "err", err)
	}
}
