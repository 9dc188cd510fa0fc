package engine

import (
	"errors"
	"fmt"
	"net/netip"

	"dnslb/internal/core"
)

// QueryContext promotes the per-query decision input from a bare
// domain index to what a real front end knows: the querying resolver's
// transport address, the optional RFC 7871 EDNS-Client-Subnet the
// resolver forwarded, and which transport the query arrived through.
// The engine classifies the originating domain from the client subnet
// when one is in effect and falls back to the resolver address
// otherwise — the geo-proximity fix for resolvers whose location
// disagrees with their clients' (the misalignment ECS exists to
// repair).
//
// DecideQuery is deliberately a thin, deterministic shell around
// Decide: with no client subnet in effect it is exactly
// Decide(Mapper(Resolver)), so every existing caller, golden and
// conformance guarantee is preserved bit-for-bit, and the conformance
// suite extends to the full QueryContext by feeding both paths the
// same recorded contexts.

// Transport identifies the front end a query arrived through. The
// engine itself never branches on it; it rides the QueryContext so
// transports share one decision path while the server keeps
// per-transport accounting.
type Transport uint8

const (
	// TransportNone marks a context with no transport attribution
	// (direct engine callers, the simulator).
	TransportNone Transport = iota
	// TransportUDP is the datagram front end (plain DNS over UDP).
	TransportUDP
	// TransportTCP is the stream front end (RFC 7766, pipelined).
	TransportTCP
	// TransportDoH is the HTTP front end (RFC 8484 wire + JSON).
	TransportDoH
)

// numTransports bounds Transport values for per-transport counters.
const numTransports = 4

// String returns the transport's metric-label form.
func (t Transport) String() string {
	switch t {
	case TransportUDP:
		return "udp"
	case TransportTCP:
		return "tcp"
	case TransportDoH:
		return "doh"
	default:
		return "none"
	}
}

// ECSMode selects how the engine combines a query's client subnet with
// the resolver address (RFC 7871 deployment modes).
type ECSMode uint8

const (
	// ECSPassthrough (default) honours a forwarded client subnet as the
	// classification key and uses the resolver address when none was
	// sent.
	ECSPassthrough ECSMode = iota
	// ECSAdd behaves like passthrough but synthesizes a subnet from the
	// resolver address when the query carries none — useful when a
	// fleet of non-ECS resolvers should still be classified at subnet
	// rather than host granularity.
	ECSAdd
	// ECSOverride ignores any forwarded subnet and always classifies by
	// a subnet synthesized from the resolver address; answers are never
	// tailored to the client subnet (scope 0 is echoed).
	ECSOverride
)

// String returns the mode's flag/config spelling.
func (m ECSMode) String() string {
	switch m {
	case ECSAdd:
		return "add"
	case ECSOverride:
		return "override"
	default:
		return "passthrough"
	}
}

// ParseECSMode parses the -ecs-mode flag values. The empty string is
// passthrough.
func ParseECSMode(s string) (ECSMode, error) {
	switch s {
	case "", "passthrough":
		return ECSPassthrough, nil
	case "add":
		return ECSAdd, nil
	case "override":
		return ECSOverride, nil
	default:
		return ECSPassthrough, fmt.Errorf("engine: unknown ECS mode %q (want passthrough, add or override)", s)
	}
}

// Source-prefix lengths for clamped and synthesized subnets — RFC 7871
// §11's recommended privacy-preserving granularity. A forwarded subnet
// more specific than its family's length is clamped to it (and the
// clamp echoed as the answer scope); a subnet synthesized in
// add/override mode has exactly that length.
const (
	ecsV4Prefix = 24
	ecsV6Prefix = 56
)

// ecsMaxBits returns the family-appropriate source-prefix clamp.
func ecsMaxBits(addr netip.Addr) int {
	if addr.Is6() && !addr.Is4In6() {
		return ecsV6Prefix
	}
	return ecsV4Prefix
}

// QueryContext is the decision input a front end assembles per query.
type QueryContext struct {
	// Resolver is the querying name server's transport address — the
	// only locality signal available without ECS.
	Resolver netip.Addr
	// ClientSubnet is the RFC 7871 client subnet forwarded with the
	// query; the invalid zero Prefix means the query carried none.
	ClientSubnet netip.Prefix
	// Transport tags which front end the query arrived through.
	Transport Transport
}

// QueryDecision is DecideQuery's answer: the scheduling decision plus
// how the query was classified and what ECS scope the response should
// echo.
type QueryDecision struct {
	core.Decision
	// Domain is the connected-domain index the query was classified
	// into (valid even when the decision itself failed).
	Domain int
	// ClientScoped reports that the forwarded client subnet (not the
	// resolver address) drove the classification — the condition under
	// which a cached answer must never be served across subnets.
	ClientScoped bool
	// Scope is the RFC 7871 scope prefix length to echo with the
	// answer: the honoured source-prefix length (after clamping) when
	// ClientScoped, 0 otherwise ("answer not tailored to your subnet").
	Scope uint8
}

// ErrNoMapper reports a DecideQuery call on an engine assembled
// without a Mapper.
var ErrNoMapper = errors.New("engine: DecideQuery requires Config.Mapper")

// DecideQuery answers one address request described by a QueryContext:
// it derives the classification subnet per the configured ECS mode,
// maps it (or the bare resolver address) to a connected domain, and
// runs the exact Decide lifecycle on that domain. With no client
// subnet in effect the call is precisely Decide(Mapper(Resolver)) —
// same decision, same ledger write, same estimator feed — so enabling
// the QueryContext path changes nothing for ECS-less traffic.
//
// DecideQuery is safe for concurrent callers.
func (e *Engine) DecideQuery(qc QueryContext) (QueryDecision, error) {
	if e.mapper == nil {
		return QueryDecision{Domain: -1}, ErrNoMapper
	}
	subnet, scoped := e.classifySubnet(qc)
	var domain int
	if subnet.IsValid() {
		domain = e.mapper(subnet.Addr())
	} else {
		domain = e.mapper(qc.Resolver)
	}
	qd := QueryDecision{Domain: domain, ClientScoped: scoped}
	if scoped {
		qd.Scope = uint8(subnet.Bits())
	}
	d, err := e.Decide(domain)
	qd.Decision = d
	return qd, err
}

// classifySubnet applies the ECS mode: the subnet that should drive
// domain classification (invalid = use the resolver address), and
// whether that subnet is the client's own (scoped) rather than
// synthesized from the resolver.
func (e *Engine) classifySubnet(qc QueryContext) (netip.Prefix, bool) {
	if e.ecs != ECSOverride && qc.ClientSubnet.IsValid() {
		return clampPrefix(qc.ClientSubnet, ecsMaxBits(qc.ClientSubnet.Addr())), true
	}
	if e.ecs == ECSAdd || e.ecs == ECSOverride {
		return e.synthSubnet(qc.Resolver), false
	}
	return netip.Prefix{}, false
}

// clampPrefix bounds a forwarded subnet to the source granularity: /32
// host prefixes become /24, the privacy posture RFC 7871 recommends.
func clampPrefix(p netip.Prefix, maxBits int) netip.Prefix {
	if p.Bits() <= maxBits {
		return p.Masked()
	}
	cp, err := p.Addr().Prefix(maxBits)
	if err != nil {
		return p.Masked()
	}
	return cp
}

// synthSubnet derives a classification subnet from the resolver
// address for the add/override modes; invalid when the resolver
// address itself is invalid (classification then falls back to the
// mapper's invalid-address behavior).
func (e *Engine) synthSubnet(resolver netip.Addr) netip.Prefix {
	if !resolver.IsValid() {
		return netip.Prefix{}
	}
	p, err := resolver.Prefix(ecsMaxBits(resolver))
	if err != nil {
		return netip.Prefix{}
	}
	return p
}
