package sim

import (
	"errors"
	"fmt"
	"net/netip"

	"dnslb/internal/engine"
)

// Resolver/client misalignment extension (EDNS-Client-Subnet).
//
// The paper's model assumes each connected domain resolves through a
// name server inside that domain, so the resolver's address identifies
// the clients' location. Real deployments broke that assumption long
// ago: public resolvers and centralized corporate DNS put the querying
// address far from the clients it serves, which is exactly the problem
// RFC 7871 ECS exists to repair. This extension quantifies the damage
// and the repair: a configured fraction of domains resolve through a
// name server located in a different (shifted) domain, and the engine
// receives either the bare resolver address (no ECS — the misdirected
// baseline) or the clients' true subnet in an ECS option.
//
// Addressing scheme: domain d owns the /24 network 10.(d>>8).(d&255).0
// — the same 10.x.y.z convention the live load generator uses. The
// resolver for domain d sits at host .1 of its own domain's network;
// the clients' ECS option carries the domain's /24. The engine's
// Mapper decodes octets 1–2 back to the domain index, so aligned
// queries classify identically with and without ECS — only misaligned
// resolvers make the two paths diverge.

// ECSMisalignConfig parameterizes the extension (Config.ECSMisalign).
type ECSMisalignConfig struct {
	// Fraction of domains whose resolver is misaligned (located in a
	// different domain), in [0,1]. The first round(Fraction×D) domains
	// are misaligned — under the Zipf-ranked workload those are the
	// busiest domains, the worst case for proximity policies.
	Fraction float64
	// Shift is how many domains away a misaligned resolver sits
	// (resolver of domain d is located at domain (d+Shift) mod D);
	// 0 defaults to D/2, the antipode on the ring geography.
	Shift int
	// UseECS makes the resolvers forward the clients' true /24 subnet
	// in an RFC 7871 ECS option; false sends bare resolver-address
	// queries (the misdirected baseline).
	UseECS bool
}

func (c *ECSMisalignConfig) validate(domains int) error {
	if !probability(c.Fraction) {
		return errors.New("sim: ECSMisalign.Fraction must be within [0,1]")
	}
	if c.Shift < 0 || c.Shift >= domains {
		return fmt.Errorf("sim: ECSMisalign.Shift %d out of [0,%d)", c.Shift, domains)
	}
	if domains > 1<<16 {
		return fmt.Errorf("sim: ECSMisalign supports at most %d domains, workload has %d", 1<<16, domains)
	}
	return nil
}

// ecsDomainAddr returns the resolver host address of domain d's
// network: 10.(d>>8).(d&255).1.
func ecsDomainAddr(d int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(d >> 8), byte(d), 1})
}

// ecsDomainPrefix returns domain d's client network as the /24 an ECS
// option would carry: 10.(d>>8).(d&255).0/24.
func ecsDomainPrefix(d int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(d >> 8), byte(d), 0}), 24)
}

// ecsDomainMapper returns the engine Mapper decoding the addressing
// scheme: octets 1–2 of a 10.x.y.z address are the domain index
// (mod domains, so arbitrary addresses still classify somewhere).
func ecsDomainMapper(domains int) func(addr netip.Addr) int {
	return func(addr netip.Addr) int {
		if !addr.IsValid() {
			return 0
		}
		b := addr.As4()
		return (int(b[1])<<8 | int(b[2])) % domains
	}
}

// ecsResolvers models the name-server population's query-side identity:
// which domain each domain's resolver is actually located in, and
// whether it forwards ECS. It sits between the cache tier and the
// engine, replacing the direct Decide(domain) call with a DecideQuery
// carrying the addresses a real authoritative server would see.
type ecsResolvers struct {
	misaligned []bool // domain → resolver located elsewhere?
	shift      int
	useECS     bool
	domains    int

	queries    uint64 // DecideQuery calls
	misrouted  uint64 // decisions classified to the wrong domain
	ecsCarried uint64 // queries that carried an ECS option
}

// newECSResolvers builds the population: the first round(Fraction×D)
// domains are misaligned by Shift (default D/2).
func newECSResolvers(cfg *ECSMisalignConfig, domains int) *ecsResolvers {
	shift := cfg.Shift
	if shift == 0 {
		shift = domains / 2
	}
	n := int(float64(cfg.Fraction*float64(domains)) + 0.5)
	if n > domains {
		n = domains
	}
	mis := make([]bool, domains)
	for d := 0; d < n; d++ {
		mis[d] = true
	}
	return &ecsResolvers{
		misaligned: mis,
		shift:      shift,
		useECS:     cfg.UseECS,
		domains:    domains,
	}
}

// decide answers one address request for domain through the engine's
// query-context path, exactly as the live server would see it: the
// query arrives from the domain's resolver address (possibly located
// in a shifted domain), optionally carrying the clients' true subnet
// as ECS.
func (er *ecsResolvers) decide(eng *engine.Engine, domain int) (engine.QueryDecision, error) {
	resolverDomain := domain
	if er.misaligned[domain] {
		resolverDomain = (domain + er.shift) % er.domains
	}
	qc := engine.QueryContext{Resolver: ecsDomainAddr(resolverDomain)}
	if er.useECS {
		qc.ClientSubnet = ecsDomainPrefix(domain)
	}
	qd, err := eng.DecideQuery(qc)
	if err != nil {
		return qd, err
	}
	er.queries++
	if qc.ClientSubnet.IsValid() {
		er.ecsCarried++
	}
	if qd.Domain != domain {
		er.misrouted++
	}
	return qd, nil
}

// collect folds the resolver-side counters into the result.
func (er *ecsResolvers) collect(res *Result) {
	res.ECSQueries = er.queries
	res.ECSCarried = er.ecsCarried
	res.ECSMisrouted = er.misrouted
}
