package dnsserver

import (
	"errors"
	"fmt"
	"net/netip"
	"time"
)

// Zero-downtime reconfiguration: the server set can change while the
// DNS keeps answering. Join adds (or revives) a server slot, Drain
// retires one gracefully, and Reconfigure diffs a whole desired server
// set against the current membership. All three serialize on
// reconfigMu; the query path never blocks on any of them — it reads
// the atomically published address table and state snapshot.
//
// Graceful drain follows the paper's hidden-load model: every mapping
// the DNS hands out pins load to its server for the TTL, so a server
// cannot simply vanish — the policy stops scheduling it immediately,
// but the slot stays resolvable and serving until the largest
// outstanding TTL it was handed has expired, and only then is it
// removed from membership. The engine owns that rule (Engine.Drain and
// Engine.Retire, as in the simulator); this file adds the sweep that
// calls Retire.

// Join adds a Web server with the given IPv4 address and capacity to
// the cluster, returning its slot index. Join is idempotent and
// address-keyed:
//
//   - an active member with the same address has its capacity updated
//     and keeps its index (duplicate JOIN);
//   - a draining or retired slot with the same address is reinstated
//     at that index with cleared alarm/down flags (a re-JOIN cancels
//     the drain: outstanding mappings to it are valid again);
//   - an unknown address gets a fresh slot, schedulable immediately.
func (s *Server) Join(addr netip.Addr, capacity float64) (int, error) {
	if !addr.Is4() {
		return 0, fmt.Errorf("dnsserver: join address %v must be IPv4", addr)
	}
	s.reconfigMu.Lock()
	defer s.reconfigMu.Unlock()
	return s.joinLocked(addr, capacity)
}

func (s *Server) joinLocked(addr netip.Addr, capacity float64) (int, error) {
	st := s.policy.State()
	sn := st.Snapshot()
	cur := s.serverAddrs()
	for i, a := range cur {
		if a != addr {
			continue
		}
		if sn.Member(i) && !sn.Draining(i) {
			if err := st.SetCapacity(i, capacity); err != nil {
				return 0, err
			}
			return i, nil
		}
		delete(s.localDrains, i)
		if err := st.ReinstateServer(i, capacity); err != nil {
			return 0, err
		}
		s.joins.Add(1)
		s.noteJoin(i)
		s.logger.Info("server rejoined", "server", i, "addr", addr, "capacity", capacity)
		return i, nil
	}
	// Fresh slot. Publish the address table first: the instant AddServer
	// publishes membership, a concurrent Decide may pick the new index,
	// and the query path must find its address.
	idx := len(cur)
	next := make([]netip.Addr, idx+1)
	copy(next, cur)
	next[idx] = addr
	s.addrs.Store(&next)
	got, err := s.eng.AddServer(capacity)
	if err != nil {
		s.addrs.Store(&cur)
		return 0, err
	}
	if got != idx {
		// Slots and addresses are maintained in lockstep under
		// reconfigMu; a mismatch means that invariant broke.
		s.addrs.Store(&cur)
		return 0, fmt.Errorf("dnsserver: slot %d for address table of %d entries", got, idx)
	}
	s.joins.Add(1)
	s.noteJoin(idx)
	if s.metrics != nil {
		s.metrics.ensureServerSeries(idx + 1)
	}
	s.logger.Info("server joined", "server", idx, "addr", addr, "capacity", capacity)
	return idx, nil
}

// noteJoin grows and touches the liveness monitor for a joined slot so
// the fresh server starts with a full reporting grace period.
func (s *Server) noteJoin(i int) {
	if m := s.liveness; m != nil {
		m.Grow(i + 1)
		m.Touch(i)
	}
}

// Drain gracefully retires server i: the scheduler stops handing out
// new mappings to it at once, and the slot is removed from membership
// when the hidden-load window of its outstanding TTLs has run out — within
// this call when it has none. The returned time is the earliest instant
// the removal can happen. Draining a server that is already draining just
// returns the pending deadline. The last schedulable server cannot be
// drained.
func (s *Server) Drain(i int) (time.Time, error) {
	s.reconfigMu.Lock()
	deadline, err := s.drainLocked(i)
	s.reconfigMu.Unlock()
	s.retireDrained()
	return deadline, err
}

// drainLocked starts draining server i and makes it this replica's to
// retire, a drain that arrived by gossip included. Caller holds
// reconfigMu.
func (s *Server) drainLocked(i int) (time.Time, error) {
	started := !s.policy.State().Snapshot().Draining(i)
	sec, err := s.eng.Drain(i)
	if err != nil {
		return time.Time{}, err
	}
	s.localDrains[i] = struct{}{}
	deadline := s.clock.Time(sec)
	if started {
		s.drains.Add(1)
		s.logger.Info("server draining", "server", i, "until", deadline)
	}
	return deadline, nil
}

// drainSweepInterval is how often a running server looks for drains whose
// window has closed: a removal is never early and at most this late.
const drainSweepInterval = time.Second

// retireDrained is the drain sweep, which Start runs every
// drainSweepInterval and Drain and Reconfigure run once: it retires,
// through Engine.Retire, every drain this replica started whose window
// has closed by the engine clock. Retire judges the window, so a decision
// in flight at the drain's start that moved it keeps the slot until the
// later deadline. A drain that arrived only by gossip is not this
// replica's to retire, and a stopping server retires nothing.
func (s *Server) retireDrained() {
	s.reconfigMu.Lock()
	defer s.reconfigMu.Unlock()
	select {
	case <-s.closed:
		return
	default:
	}
	for i := range s.localDrains {
		later, err := s.eng.Retire(i)
		switch {
		case later > 0:
			continue
		case err == nil:
			s.removals.Add(1)
			s.logger.Info("server removed after drain", "server", i)
		case s.policy.State().Snapshot().Draining(i):
			s.logger.Warn("drain completion could not remove server", "server", i, "err", err)
		}
		delete(s.localDrains, i) // retired here, or reinstated or retired by a peer
	}
}

// Reconfigure diffs the desired server set against the current
// membership and applies it: unknown addresses join, known addresses
// have their capacity updated, and active members absent from the
// desired set are drained. It is the SIGHUP reload entry point. The
// first error aborts the remaining changes and is returned; changes
// already applied stay applied (the next reload converges).
func (s *Server) Reconfigure(addrs []netip.Addr, capacities []float64) error {
	if len(addrs) == 0 {
		return errors.New("dnsserver: reconfigure needs at least one server")
	}
	if len(addrs) != len(capacities) {
		return fmt.Errorf("dnsserver: %d addresses for %d capacities", len(addrs), len(capacities))
	}
	desired := make(map[netip.Addr]bool, len(addrs))
	for _, a := range addrs {
		if !a.Is4() {
			return fmt.Errorf("dnsserver: server address %v must be IPv4", a)
		}
		if desired[a] {
			return fmt.Errorf("dnsserver: duplicate server address %v", a)
		}
		desired[a] = true
	}
	defer s.retireDrained() // after the unlock below
	s.reconfigMu.Lock()
	defer s.reconfigMu.Unlock()
	// Joins before drains: the incoming capacity must be schedulable
	// before the outgoing servers stop taking mappings, or a reload
	// that replaces the whole set could hit the last-server guard.
	for k, a := range addrs {
		if _, err := s.joinLocked(a, capacities[k]); err != nil {
			s.reloadErrs.Add(1)
			return fmt.Errorf("dnsserver: reconfigure join %v: %w", a, err)
		}
	}
	sn := s.policy.State().Snapshot()
	for i, a := range s.serverAddrs() {
		if desired[a] || !sn.Member(i) || sn.Draining(i) {
			continue
		}
		if _, err := s.drainLocked(i); err != nil {
			s.reloadErrs.Add(1)
			return fmt.Errorf("dnsserver: reconfigure drain %d (%v): %w", i, a, err)
		}
	}
	s.reloads.Add(1)
	return nil
}
