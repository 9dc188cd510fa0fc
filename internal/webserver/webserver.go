// Package webserver models one Web server of the distributed site: a
// work-conserving FIFO queue whose capacity is expressed in hits per
// second, with per-window busy-time utilization (the quantity each
// server periodically reports to the DNS alarm mechanism) and
// per-domain hit accounting for the hidden-load estimator.
//
// The model exploits that all hits of a page burst go back-to-back to
// the same server: a page is a single job of service time hits/C, so
// no completion events are needed. Busy time is credited lazily from
// the "busy until" horizon, which is exact for a FIFO queue.
//
// The simulator and the live backend (internal/backend) both run this
// one queue, so they measure utilization with the same code.
package webserver

import (
	"errors"
	"fmt"
)

// Server is a single Web server. It is driven by a clock in seconds —
// the simulator's virtual time, or the backend's seconds since start:
// all methods take the current time, which must be non-decreasing
// across calls. A Server is not safe for concurrent use.
type Server struct {
	capacity float64 // hits per second

	busyUntil float64 // virtual time when the current backlog drains
	credited  float64 // busy seconds credited so far
	creditTo  float64 // wall time up to which busy time was evaluated

	windowStart   float64
	windowCredits float64 // credited busy seconds at window start

	totalHits  uint64
	totalPages uint64
	domainHits []float64

	sumResponse float64 // Σ (queue wait + service) over all pages
	maxResponse float64
}

// New creates a server with the given capacity in hits per second,
// tracking hit counts for the given number of domains.
func New(capacity float64, domains int) (*Server, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("webserver: capacity %v must be positive", capacity)
	}
	if domains <= 0 {
		return nil, errors.New("webserver: need at least one domain")
	}
	return &Server{capacity: capacity, domainHits: make([]float64, domains)}, nil
}

// Arrive enqueues a page of the given number of hits from a domain at
// virtual time now. Service time is hits/capacity seconds, appended to
// the FIFO backlog.
func (s *Server) Arrive(now float64, domain, hits int) {
	if hits <= 0 {
		return
	}
	s.advance(now)
	service := float64(hits) / s.capacity
	if s.busyUntil < now {
		s.busyUntil = now
	}
	s.busyUntil += service
	// FIFO response time: the page completes when the backlog (which
	// now includes it) drains.
	response := s.busyUntil - now
	s.sumResponse += response
	if response > s.maxResponse {
		s.maxResponse = response
	}
	s.totalHits += uint64(hits)
	s.totalPages++
	if domain >= 0 && domain < len(s.domainHits) {
		s.domainHits[domain] += float64(hits)
	}
}

// advance credits busy seconds up to wall time now.
func (s *Server) advance(now float64) {
	if now <= s.creditTo {
		return
	}
	busyEnd := s.busyUntil
	if busyEnd > now {
		busyEnd = now
	}
	if busyEnd > s.creditTo {
		s.credited += busyEnd - s.creditTo
	}
	s.creditTo = now
}

// Utilization returns the busy-time fraction of the window open since
// the previous CloseWindow (or time zero), credited up to now, without
// closing it: a live reading of the quantity CloseWindow reports. It
// is in [0, 1]; an empty window reads 0.
func (s *Server) Utilization(now float64) float64 {
	s.advance(now)
	length := now - s.windowStart
	if length <= 0 {
		return 0
	}
	return max(0, min(1, (s.credited-s.windowCredits)/length))
}

// CloseWindow ends the utilization window that started at the previous
// CloseWindow (or at time zero) and returns the busy-time fraction of
// that window, the paper's server utilization. Utilization is in
// [0, 1]: a saturated server reports 1 while its backlog grows.
func (s *Server) CloseWindow(now float64) float64 {
	util := s.Utilization(now)
	s.windowStart, s.windowCredits = now, s.credited
	return util
}

// Backlog returns the outstanding work in seconds at time now: how
// long the server would need, with no further arrivals, to drain.
func (s *Server) Backlog(now float64) float64 {
	if s.busyUntil <= now {
		return 0
	}
	return s.busyUntil - now
}

// MeanUtilization returns cumulative busy time divided by elapsed
// virtual time at now.
func (s *Server) MeanUtilization(now float64) float64 {
	s.advance(now)
	if now <= 0 {
		return 0
	}
	return s.credited / now
}

// TotalHits returns the number of hits served (including queued).
func (s *Server) TotalHits() uint64 { return s.totalHits }

// TotalPages returns the number of page bursts received.
func (s *Server) TotalPages() uint64 { return s.totalPages }

// MeanResponseTime returns the average page response time in seconds
// (queue wait plus service) over all pages received so far, or 0 when
// no page has arrived.
func (s *Server) MeanResponseTime() float64 {
	if s.totalPages == 0 {
		return 0
	}
	return s.sumResponse / float64(s.totalPages)
}

// MaxResponseTime returns the largest page response time observed.
func (s *Server) MaxResponseTime() float64 { return s.maxResponse }

// TakeDomainHits returns the per-domain hit counts accumulated since
// the previous call and resets them — the server-side half of the
// paper's "servers keep track of the number of incoming requests from
// each domain and the DNS periodically collects the information".
func (s *Server) TakeDomainHits() []float64 {
	out := make([]float64, len(s.domainHits))
	copy(out, s.domainHits)
	for j := range s.domainHits {
		s.domainHits[j] = 0
	}
	return out
}
