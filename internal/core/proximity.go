package core

import (
	"errors"
	"fmt"
)

// Proximity-aware scheduling (extension — not in the paper).
//
// The paper's site is geographically distributed but its policies
// optimize load alone. Modern GeoDNS deployments also weigh network
// proximity: answering with a nearby server cuts client latency but
// concentrates load on whatever is close to the hot domains. A policy
// built with a ProximityConfig composes both: Policy.Schedule first
// draws against the preference and, on a hit, answers with the nearest
// available server (an alarmed one is not available); otherwise, or
// when none is, the policy's own selector decides. The latency matrix
// is supplied per (domain, server); the sim's geo extension sweeps the
// preference strength.

// LatencyMatrix holds the network distance in milliseconds from each
// connected domain to each Web server.
type LatencyMatrix struct {
	servers int
	ms      []float64 // row-major [domain][server]
}

// NewLatencyMatrix builds a matrix from row-major values.
func NewLatencyMatrix(domains, servers int, ms []float64) (*LatencyMatrix, error) {
	if domains <= 0 || servers <= 0 {
		return nil, errors.New("core: latency matrix needs positive dimensions")
	}
	if len(ms) != domains*servers {
		return nil, fmt.Errorf("core: latency matrix has %d values, want %d", len(ms), domains*servers)
	}
	for i, v := range ms {
		if v < 0 {
			return nil, fmt.Errorf("core: negative latency at %d", i)
		}
	}
	out := make([]float64, len(ms))
	copy(out, ms)
	return &LatencyMatrix{servers: servers, ms: out}, nil
}

// Latency returns the distance from domain j to server i in ms.
func (m *LatencyMatrix) Latency(domain, server int) float64 {
	return m.ms[domain*m.servers+server]
}

// nearest returns the closest available server for a domain, or -1 when
// none is (every server down, draining or retired: availability admits
// alarmed servers once every one is alarmed).
func (m *LatencyMatrix) nearest(sn *Snapshot, domain int) int {
	best := -1
	bestMS := 0.0
	for i := 0; i < m.servers; i++ {
		if !sn.available(i) {
			continue
		}
		d := m.Latency(domain, i)
		if best == -1 || d < bestMS {
			best, bestMS = i, d
		}
	}
	return best
}

// RingLatencies builds a synthetic geography: domains and servers are
// placed on a ring and latency grows linearly with angular distance
// from baseMS up to baseMS+spanMS. It gives every domain a distinct
// nearest server while keeping the matrix fully deterministic.
func RingLatencies(domains, servers int, baseMS, spanMS float64) (*LatencyMatrix, error) {
	if domains <= 0 || servers <= 0 {
		return nil, errors.New("core: ring needs positive dimensions")
	}
	if baseMS < 0 || spanMS < 0 {
		return nil, errors.New("core: ring latencies must be non-negative")
	}
	ms := make([]float64, domains*servers)
	for j := 0; j < domains; j++ {
		dj := float64(j) / float64(domains)
		for i := 0; i < servers; i++ {
			di := float64(i) / float64(servers)
			dist := dj - di
			if dist < 0 {
				dist = -dist
			}
			if dist > 0.5 {
				dist = 1 - dist
			}
			ms[j*servers+i] = baseMS + spanMS*2*dist
		}
	}
	return NewLatencyMatrix(domains, servers, ms)
}

// The ring geography's shape wherever proximity is enabled: 20 ms to the
// nearest point on the ring, 180 ms to the farthest.
const (
	DefaultGeoBaseMS = 20.0
	DefaultGeoSpanMS = 160.0
)

// RingProximityConfig builds the ProximityConfig the simulator uses
// for the geo extension: the synthetic ring geography over the given
// population. A zero preference returns
// (nil, nil) — the extension disabled — so callers can pass their
// flag value through unconditionally.
func RingProximityConfig(domains, servers int, preference float64) (*ProximityConfig, error) {
	if preference == 0 {
		return nil, nil
	}
	if !(preference >= 0 && preference <= 1) {
		return nil, fmt.Errorf("core: proximity preference %v out of [0,1]", preference)
	}
	m, err := RingLatencies(domains, servers, DefaultGeoBaseMS, DefaultGeoSpanMS)
	if err != nil {
		return nil, err
	}
	return &ProximityConfig{Matrix: m, Preference: preference}, nil
}
