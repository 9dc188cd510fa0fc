// Package dnsserver runs the adaptive-TTL scheduler as a real
// authoritative DNS server: A queries for the site name are answered
// with the Web server chosen by the configured core policy and the TTL
// the policy computed for the (client domain, server) pair.
//
// The server is a thin transport over the shared scheduling engine
// (internal/engine): the engine owns the decision lifecycle —
// membership/liveness/drain filtering, policy selection, TTL
// assignment, the outstanding-mapping ledger, and the hidden-load
// estimator feedback — under a wall clock, exactly as the simulator
// runs it under virtual time. This package adds the wire: sockets,
// parsing, packing, rate limiting and counters.
//
// The source "domain" of a query is derived from the querying name
// server's address through a pluggable DomainMapper, defaulting to a
// stable hash of the address prefix. Web servers feed the alarm and
// hidden-load machinery over the plain-text load-report socket (see
// report.go).
//
// The query path is lock-free: core.Policy and core.State are safe for
// concurrent use (see core's concurrency contract), so the server runs
// several UDP reader/responder goroutines over one shared socket, each
// scheduling directly against the engine. Serve counters are sharded
// per source-address hash and response buffers are pooled, so the hot
// path takes no server-level lock and makes no per-query allocations.
package dnsserver

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dnslb/internal/core"
	"dnslb/internal/dnswire"
	"dnslb/internal/engine"
	"dnslb/internal/logging"
	"dnslb/internal/metrics"
	"dnslb/internal/probe"
	"dnslb/internal/replication"
	"dnslb/internal/sock"
)

// DomainMapper identifies the connected domain an address request
// originates from, given the querying resolver's address.
type DomainMapper func(addr netip.Addr) int

// Config configures a Server.
type Config struct {
	// Zone is the site name served, e.g. "www.site.example".
	Zone string
	// ServerAddrs are the Web servers' IPv4 addresses, index-aligned
	// with the policy's cluster.
	ServerAddrs []netip.Addr
	// Policy is the DNS scheduling policy. It is called concurrently
	// from every serve goroutine without server-level locking;
	// core.Policy guarantees this is safe.
	Policy *core.Policy
	// Mapper identifies the source domain of each query. Nil installs
	// PrefixHashMapper over the policy's domain count.
	Mapper DomainMapper
	// Addr is the UDP/TCP listen address, e.g. "127.0.0.1:0". It and
	// every other address here are IP literals with a port, an empty
	// host meaning any (sock.ParseAddr): nothing is looked up.
	Addr string
	// HTTPAddr, when non-empty, additionally serves queries over HTTP
	// (DoH): RFC 8484 wire format on /dns-query and a JSON API on
	// /resolve (see doh.go). The HTTP front end shares the engine, the
	// rate limiter and the metrics with the UDP/TCP listeners. It speaks
	// a strict subset of HTTP/1.1 in the clear and closes on anything
	// else: TLS and HTTP/2 terminate ahead of the process.
	HTTPAddr string
	// MetricsAddr, when non-empty, serves Metrics on /metrics (no series
	// without it), and PprofAddr the runtime's profiles under
	// /debug/pprof/, on DoH's HTTP/1.1 framing (admin.go). PprofAddr is
	// for the operator and should never face the public internet.
	MetricsAddr, PprofAddr string
	// ECS selects the engine's RFC 7871 client-subnet mode
	// (passthrough/add/override); the zero value is passthrough.
	ECS engine.ECSMode
	// Logger receives structured serve-loop diagnostics; nil discards
	// them.
	Logger *slog.Logger
	// RateLimit optionally bounds queries per second per source
	// address; excess queries are answered REFUSED.
	RateLimit *RateLimiter
	// Estimator selects the hidden-load estimator kind, smoothing with
	// core.DefaultEstimatorAlpha as the simulator does:
	// core.EstimatorReactive (the paper's EWMA over reports, default
	// when empty) or core.EstimatorPredictive (the NS-cache
	// forecasting model fed by every TTL the server hands out). A
	// checkpoint written under one kind refuses to restore into the
	// other.
	Estimator string
	// MaxTCPConns bounds the number of concurrently served connections
	// of each stream listener — DNS-over-TCP, DoH and the report socket;
	// when a listener's cap is reached its accept loop pauses until a
	// connection finishes (SYN backlog absorbs the burst) instead of
	// pinning a goroutine per flooding connection. Zero defaults to
	// DefaultMaxTCPConns; negative means unlimited.
	MaxTCPConns int
	// ReportAddr, when non-empty, binds the plain-text load-report socket
	// (report.go): the backends' feedback channel and the peer replicas'
	// REPL transport.
	ReportAddr string
	// LivenessK, when positive, marks a backend down after it stayed
	// silent on the report socket for LivenessK consecutive
	// LivenessIntervals (liveness.go). The interval should match the
	// backends' report interval (the paper's 8 s); k trades detection
	// latency against tolerance of transient report loss.
	LivenessK        int
	LivenessInterval time.Duration
	// Probe, when it names Targets, runs the active health prober
	// (detect.go). The targets are index-aligned with ServerAddrs; an
	// empty Addr skips a slot, and slots joined later are unprobed.
	Probe probe.Config
	// Replication, when it names Peers, gossips soft state to the peer
	// replicas' report sockets (replication.go).
	Replication ReplicationConfig
	// CheckpointPath, when non-empty, is the soft-state file (checkpoint.go):
	// restored by Start unless older than CheckpointMaxAge (zero = no age
	// limit), rewritten every CheckpointInterval and once more, last of
	// all, by Shutdown.
	CheckpointPath     string
	CheckpointInterval time.Duration
	CheckpointMaxAge   time.Duration
	// Metrics optionally registers the server's observability series
	// (queries by outcome, per-worker latency, returned-TTL histogram,
	// policy decisions, alarm/liveness transitions) on the given
	// registry. Nil disables instrumentation; the hot path then pays
	// only nil checks. See DESIGN.md §10 for the series inventory.
	Metrics *metrics.Registry
}

// Server is the authoritative DNS front end.
type Server struct {
	zone string
	// zoneWire is zone in wire form, the question name of a response
	// whose query cannot be echoed verbatim (see appendQuestion).
	zoneWire []byte
	// addrs points at the immutable per-slot address table,
	// index-aligned with the policy's cluster; Join replaces it
	// copy-on-write so the query path reads it with one atomic load.
	// Retired slots keep their last address (re-JOIN matching).
	addrs atomic.Pointer[[]netip.Addr]

	// eng is the shared scheduling engine: policy selection, TTL
	// assignment, the outstanding-mapping ledger and the estimator
	// feedback loop all live there. clock is its clock: the one "now" of
	// the control plane, and the translation of its seconds to wall time.
	eng    *engine.Engine
	clock  clock
	policy *core.Policy

	// cfg is the configuration New accepted: what Start binds, restores
	// and launches, read-only from New on.
	cfg     Config
	logger  *slog.Logger
	limiter *RateLimiter
	// udpWorkers is the number of parallel UDP reader/responder
	// goroutines over the one shared socket: GOMAXPROCS at New.
	udpWorkers int

	registry *metrics.Registry // nil when uninstrumented
	metrics  *serverMetrics    // nil when uninstrumented

	// The sockets Start binds. The stream listeners share one accept
	// loop and one stop path (serve.go); all but tcp are nil when their
	// Config address is empty.
	udp                                       *sock.Listener
	tcp, httpLn, reportLn, metricsLn, pprofLn *sock.Listener

	// DoH request outcomes, kept as plain atomics (always maintained,
	// exported as dnslb_doh_requests_total{outcome=...} when
	// instrumented).
	dohOK         atomic.Uint64
	dohBadRequest atomic.Uint64
	dohDropped    atomic.Uint64

	// Report-socket lines and connections by outcome, the same way
	// (dnslb_report_*_total).
	report struct{ ok, err, opened, closed, connErrors atomic.Uint64 }

	connsMu sync.Mutex
	conns   map[*sock.Conn]struct{}

	// The control plane around the engine. New builds each component its
	// Config section asks for and none is attached, replaced or removed
	// afterwards, so they are read without a lock; nil means not
	// configured. Start launches them and Shutdown stops them (serve.go).
	//
	// liveness and prober are the passive and the active failure detector
	// and votes combines them (detect.go). replNode is the replica's
	// protocol endpoint, fed by the engine's decision tap, and replicator
	// its gossip links (replication.go).
	liveness   *livenessMonitor
	votes      downVotes
	prober     *probe.Prober
	replNode   *replication.Node
	replicator *replication.Replicator

	// reconfigMu serializes membership changes (Join, Drain,
	// Reconfigure, checkpoint restore, the drain sweep) against each
	// other; the query path never takes it. localDrains holds the drains
	// this replica started, which the sweep retires (reconfig.go).
	reconfigMu  sync.Mutex
	localDrains map[int]struct{}

	// maxTCPConns caps the concurrent connections of each stream listener
	// (0 = unlimited after New applied the default); tcpConns is the live
	// count on the TCP one.
	maxTCPConns int
	tcpConns    atomic.Int64

	// Reconfiguration and robustness counters; exported as metric
	// series when instrumented but always maintained, so uninstrumented
	// servers (and tests) can observe them too.
	panics     atomic.Uint64
	joins      atomic.Uint64
	drains     atomic.Uint64
	removals   atomic.Uint64
	reloads    atomic.Uint64
	reloadErrs atomic.Uint64
	ckptSaves  atomic.Uint64
	ckptErrs   atomic.Uint64

	wg     sync.WaitGroup
	closed chan struct{}

	stats [statsShards]statsShard
}

// ServerStats counts served queries by outcome.
type ServerStats struct {
	Queries     uint64
	Answered    uint64
	NXDomain    uint64
	FormErr     uint64
	NotImp      uint64
	ServFail    uint64
	Truncated   uint64
	RateLimited uint64
}

// statsShards spreads the serve counters across independently updated
// cache lines, indexed by source-address hash, so parallel serve
// goroutines don't bounce one counter line between cores.
const statsShards = 16

// statsCounter names one of the serve counters a statsShard holds:
// ServerStats' eight and the queries received per transport.
type statsCounter int

const (
	cQueries statsCounter = iota
	cAnswered
	cNXDomain
	cFormErr
	cNotImp
	cServFail
	cTruncated
	cRateLimited
	// cTransport is the first of numTransports per-transport query
	// counts, indexed by engine.Transport.
	cTransport
	numCounters = cTransport + numTransports
)

// numTransports mirrors the engine's Transport value range
// (none/udp/tcp/doh).
const numTransports = 4

// statsShard is one shard of the serve counters, padded to whole
// 64-byte cache lines so adjacent shards never share a line.
type statsShard struct {
	c [numCounters]atomic.Uint64
	_ [(64 - numCounters*8%64) % 64]byte
}

// statsTotal sums one counter across the stats shards. Counters may be
// mid-update while summing; each total is individually consistent
// (monotone), which is all the callers need.
func (s *Server) statsTotal(c statsCounter) uint64 {
	var t uint64
	for i := range s.stats {
		t += s.stats[i].c[c].Load()
	}
	return t
}

// statsIndex hashes the source address to a counter-shard index, also
// used as the metric shard hint. Invalid addresses (possible on the
// TCP path) land in shard 0.
func (s *Server) statsIndex(addr netip.Addr) uint32 {
	if !addr.IsValid() {
		return 0
	}
	return addrHash(addr) & (statsShards - 1)
}

// addrHash is FNV-1a over the address's 16-byte form, the source hash
// both the stats shards and the rate limiter's shards are indexed by.
// IPv4 addresses hash in their 4-in-6 form, so the low bytes still vary
// and spread adjacent sources across shards.
func addrHash(addr netip.Addr) uint32 {
	b := addr.As16()
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// maxZoneWire is the longest zone name, in wire bytes, whose SOA names
// (appendSOA puts a "hostmaster" label before it) still fit a name's 255.
const maxZoneWire = 255 - len("\x0ahostmaster")

// Validate reports the first rule of this package that c breaks. It is
// the one place such a rule is written, and New calls it before anything
// else; the estimator's, the ECS modes', the prober's and the replication
// protocol's rules are their packages', whose constructors New calls next.
// Either way a configuration is refused before anything is bound, read
// from disk or started.
func (c Config) Validate() error {
	switch {
	case c.Zone == "":
		return errors.New("dnsserver: Zone is required")
	case c.Policy == nil:
		return errors.New("dnsserver: Policy is required")
	}
	n := c.Policy.State().Snapshot().Cluster().N()
	if len(c.ServerAddrs) != n {
		return fmt.Errorf("dnsserver: %d server addresses for %d servers", len(c.ServerAddrs), n)
	}
	for i, a := range c.ServerAddrs {
		if !a.Is4() {
			return fmt.Errorf("dnsserver: server address %d (%v) must be IPv4", i, a)
		}
	}
	switch {
	case c.LivenessK > 0 && c.LivenessInterval <= 0:
		return fmt.Errorf("dnsserver: LivenessInterval %v must be positive", c.LivenessInterval)
	case len(c.Probe.Targets) != 0 && len(c.Probe.Targets) != n:
		return fmt.Errorf("dnsserver: %d Probe.Targets for %d servers", len(c.Probe.Targets), n)
	case len(c.Replication.Peers) != 0 && c.Replication.ReplicaID == "":
		return errors.New("dnsserver: Replication.Peers need a Replication.ReplicaID")
	case c.CheckpointPath != "" && c.CheckpointInterval <= 0:
		return fmt.Errorf("dnsserver: CheckpointInterval %v must be positive", c.CheckpointInterval)
	case c.RateLimit != nil && !(c.RateLimit.rate <= math.MaxFloat64):
		return fmt.Errorf("dnsserver: RateLimit rate %v must be finite", c.RateLimit.rate)
	case c.RateLimit != nil && !(c.RateLimit.burst <= math.MaxFloat64):
		return fmt.Errorf("dnsserver: RateLimit burst %v must be finite", c.RateLimit.burst)
	}
	return nil
}

// clock is the engine's clock with the conversions to and from wall time
// that drain deadlines and checkpoints need: an engine.WallClock in
// service, an engine.ManualClock in tests that step it.
type clock interface {
	engine.Clock
	Time(sec float64) time.Time
	Seconds(t time.Time) float64
}

// New validates cfg and assembles the server it describes, every
// configured component included; nothing is bound, read from disk or
// started until Start.
func New(cfg Config) (*Server, error) { return newServer(cfg, engine.NewWallClock()) }

// newServer is New on the given clock.
func newServer(cfg Config, clk clock) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	domains := cfg.Policy.State().Snapshot().Domains()
	if cfg.Mapper == nil {
		cfg.Mapper = PrefixHashMapper(domains)
	}
	if cfg.Logger == nil {
		cfg.Logger = logging.Discard()
	}
	est, err := core.NewLoadEstimator(cfg.Estimator, domains, core.DefaultEstimatorAlpha)
	if err != nil {
		return nil, err
	}
	maxTCP := cfg.MaxTCPConns
	switch {
	case maxTCP == 0:
		maxTCP = DefaultMaxTCPConns
	case maxTCP < 0:
		maxTCP = 0 // explicit "unlimited"
	}
	zone := dnswire.CanonicalName(cfg.Zone)
	packed, err := (&dnswire.Message{Questions: []dnswire.Question{{Name: zone}}}).Pack()
	if err != nil {
		return nil, fmt.Errorf("dnsserver: Zone: %w", err)
	}
	if len(packed)-16 > maxZoneWire {
		return nil, fmt.Errorf("dnsserver: Zone: %w: no room for its SOA's hostmaster.%s", dnswire.ErrNameTooLong, zone)
	}
	s := &Server{
		cfg:         cfg,
		zone:        zone,
		zoneWire:    packed[12 : len(packed)-4],
		clock:       clk,
		policy:      cfg.Policy,
		logger:      cfg.Logger,
		limiter:     cfg.RateLimit,
		udpWorkers:  runtime.GOMAXPROCS(0),
		maxTCPConns: maxTCP,
		registry:    cfg.Metrics,
		conns:       make(map[*sock.Conn]struct{}),
		localDrains: make(map[int]struct{}),
		closed:      make(chan struct{}),
	}
	addrs := append([]netip.Addr(nil), cfg.ServerAddrs...)
	s.addrs.Store(&addrs)
	engCfg := engine.Config{
		Policy:    cfg.Policy,
		Clock:     s.clock,
		Estimator: est,
		// The server's DomainMapper is the engine's classification seam:
		// DecideQuery applies the configured ECS mode and maps either
		// the client-subnet address or the resolver address through it.
		Mapper: cfg.Mapper,
		ECS:    cfg.ECS,
	}
	replica := len(cfg.Replication.Peers) != 0
	if replica {
		// The decision tap is installed only for a replica, so that a
		// lone server's query path does not pay for it; the node it feeds
		// needs the engine and so is built right after it.
		engCfg.OnDecision = func(domain int, d core.Decision) { s.replNode.Observe(domain, d) }
	}
	if s.eng, err = engine.New(engCfg); err != nil {
		return nil, err
	}
	if replica {
		if err := s.newReplication(cfg.Replication); err != nil {
			return nil, err
		}
	}
	if cfg.LivenessK > 0 {
		s.liveness = &livenessMonitor{srv: s, window: (time.Duration(cfg.LivenessK) * cfg.LivenessInterval).Seconds()}
		s.liveness.Grow(len(addrs))
	}
	if len(cfg.Probe.Targets) != 0 {
		if err := s.newProber(cfg.Probe); err != nil {
			return nil, err
		}
	}
	if cfg.Metrics != nil {
		s.metrics = newServerMetrics(cfg.Metrics, s)
	}
	return s, nil
}

// serverAddrs returns the current immutable address table.
func (s *Server) serverAddrs() []netip.Addr { return *s.addrs.Load() }

// MappingExpiry returns the latest instant at which a mapping handed
// to server i can still be cached downstream (zero time if none was
// ever handed out) — the earliest moment a drain of i may complete.
func (s *Server) MappingExpiry(i int) time.Time {
	sec := s.eng.MappingExpiry(i)
	if sec == 0 {
		return time.Time{}
	}
	return s.clock.Time(sec)
}

// Stats returns a snapshot of the serve counters, summed across the
// shards.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Queries:     s.statsTotal(cQueries),
		Answered:    s.statsTotal(cAnswered),
		NXDomain:    s.statsTotal(cNXDomain),
		FormErr:     s.statsTotal(cFormErr),
		NotImp:      s.statsTotal(cNotImp),
		ServFail:    s.statsTotal(cServFail),
		Truncated:   s.statsTotal(cTruncated),
		RateLimited: s.statsTotal(cRateLimited),
	}
}

// Servers returns the number of server slots (including retired ones;
// see the state snapshot's Member for slot standing).
func (s *Server) Servers() int { return len(s.serverAddrs()) }

// RecordHits feeds per-domain hit counts into the hidden-load
// estimator (the server-side accounting the paper's DNS collects).
// The estimator keeps mutable running sums, so the engine serializes
// it behind its own lock, which the query path shares only under the
// predictive estimator (one short insert per decision).
// Hit reports received here are locally observed, so they are also
// queued for replication when a peer set is configured; hits merged
// FROM peers go straight into the engine and are never re-queued (no
// gossip echo).
func (s *Server) RecordHits(domain int, hits float64) {
	s.eng.RecordHits(domain, hits)
	if s.replNode != nil {
		s.replNode.AddHits(domain, hits)
	}
}

// PrefixHashMapper maps a querying address to a domain index by
// hashing its /24 (IPv4) or /48 (IPv6) prefix — stable, spreading
// resolvers of distinct networks across the connected domains.
func PrefixHashMapper(domains int) DomainMapper {
	return func(addr netip.Addr) int {
		if domains <= 0 {
			return 0
		}
		if !addr.IsValid() {
			return 0
		}
		var key []byte
		if addr.Is4() {
			b := addr.As4()
			key = b[:3]
		} else {
			b := addr.As16()
			key = b[:6]
		}
		const prime = 1099511628211
		h := uint64(14695981039346656037)
		for _, c := range key {
			h ^= uint64(c)
			h *= prime
		}
		// Finalize with an avalanche step: raw FNV of very short keys
		// distributes poorly under small moduli.
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		return int(h % uint64(domains))
	}
}

// StaticMapper returns a DomainMapper that maps exact addresses per
// the table and everything else to fallback — convenient for tests and
// controlled deployments.
func StaticMapper(table map[netip.Addr]int, fallback int) DomainMapper {
	return func(addr netip.Addr) int {
		if d, ok := table[addr]; ok {
			return d
		}
		return fallback
	}
}
