package sim

import (
	"errors"

	"dnslb/internal/core"
	"dnslb/internal/engine"
	"dnslb/internal/nameserver"
	"dnslb/internal/simcore"
	"dnslb/internal/webserver"
)

// drainTracker measures the time-to-drain metric: how long stale
// cached mappings and pointer state keep a recovered server idle. The
// fault injector marks recoveries; the traffic sink closes them when
// traffic first returns.
type drainTracker struct {
	pending     []bool
	recoveredAt []float64
	sum         float64
	n           int
}

func newDrainTracker(servers int) *drainTracker {
	return &drainTracker{
		pending:     make([]bool, servers),
		recoveredAt: make([]float64, servers),
	}
}

// crashed cancels a pending recovery observation: the server went down
// again before any traffic reached it.
func (d *drainTracker) crashed(server int) { d.pending[server] = false }

// recovered marks server as back up at virtual time now.
func (d *drainTracker) recovered(server int, now float64) {
	d.recoveredAt[server] = now
	d.pending[server] = true
}

// served records traffic reaching the server, closing a pending
// recovery observation.
func (d *drainTracker) served(server int, now float64) {
	if !d.pending[server] {
		return
	}
	d.pending[server] = false
	d.sum += now - d.recoveredAt[server]
	d.n++
}

// mean returns the mean observed time-to-drain, or 0 when no recovery
// was observed (or traffic never returned).
func (d *drainTracker) mean() float64 {
	if d.n == 0 {
		return 0
	}
	return d.sum / float64(d.n)
}

// trafficSink receives resolved page bursts and routes them to the Web
// servers, accounting for the failure and retirement states the
// scheduler state machine reports: traffic pinned to retired, dead or
// draining servers is the hidden load the DNS no longer controls.
// Server i's standing is read at its authority replica (i mod R), the
// one that applies its crashes and drains.
type trafficSink struct {
	sim      *simcore.Simulator
	replicas []*replica
	servers  []*webserver.Server
	geo      *core.LatencyMatrix
	recov    *drainTracker
	res      *Result

	// actual, when non-nil, is the detection model's ground truth,
	// true for each server that is really down: a page is lost when its
	// server is, regardless of what the scheduler believes
	// (Config.Detection). Nil means the scheduler's view IS reality
	// (the instant-knowledge bound).
	actual []bool

	latSum  float64
	latHits float64
}

func (t *trafficSink) deliver(domain, server, hits int) {
	if server < 0 {
		// The session could not be resolved: the page is lost.
		t.res.LostPages++
		return
	}
	sn := authority(t.replicas, server).state.Snapshot()
	if !sn.Member(server) {
		// A session outlived the drain window and is still pinned to
		// a retired server: its traffic is lost.
		t.res.PostRemovalHits += uint64(hits)
		t.res.LostPages++
		return
	}
	down := sn.Down(server)
	if t.actual != nil {
		down = t.actual[server]
	}
	if down {
		// The server is dead — whether a cached mapping pinned this
		// domain to it or the scheduler has not detected the crash yet.
		// The page is lost until the TTL expires or the server returns.
		t.res.DeadServerHits += uint64(hits)
		t.res.LostPages++
		return
	}
	if sn.Draining(server) {
		t.res.DrainedServerHits += uint64(hits)
	}
	now := t.sim.Now()
	t.recov.served(server, now)
	t.servers[server].Arrive(now, domain, hits)
	if t.geo != nil {
		t.latSum += float64(t.geo.Latency(domain, server) * float64(hits))
		t.latHits += float64(hits)
	}
}

// meanLatencyMS returns the traffic-weighted mean client-to-server
// distance under the geo extension (0 when disabled).
func (t *trafficSink) meanLatencyMS() float64 {
	if t.latHits == 0 {
		return 0
	}
	return t.latSum / t.latHits
}

// cacheTier is the name-server cache layer between the clients and the
// scheduling engines: lookups hit the client's cache first (its
// domain's, or a flash crowd resolver's); misses go to the domain's
// authority replica (d mod R) for a fresh decision, whose TTL the cache
// then applies (after any non-cooperative clamp).
type cacheTier struct {
	sim      *simcore.Simulator
	replicas []*replica
	// caches holds domain j's shared cache at index j, then every
	// flash crowd's resolvers.
	caches []*nameserver.Cache
	minTTL float64
	res    *Result
	fail   func(error)

	// ecs, when non-nil, routes cache misses through the resolver
	// population model (DecideQuery with resolver address and optional
	// client subnet) instead of the direct Decide(domain) call — the
	// misalignment extension (ecs.go).
	ecs *ecsResolvers
}

func newCacheTier(cfg Config, sim *simcore.Simulator, replicas []*replica, res *Result, fail func(error)) (*cacheTier, error) {
	ct := &cacheTier{sim: sim, replicas: replicas, minTTL: cfg.MinNSTTL, res: res, fail: fail}
	if _, err := ct.addCaches(cfg.Workload.Domains); err != nil {
		return nil, err
	}
	return ct, nil
}

// addCaches adds n fresh name-server caches to the tier and returns
// them.
func (ct *cacheTier) addCaches(n int) ([]*nameserver.Cache, error) {
	for range n {
		c, err := nameserver.New(ct.minTTL)
		if err != nil {
			return nil, err
		}
		ct.caches = append(ct.caches, c)
	}
	return ct.caches[len(ct.caches)-n:], nil
}

// resolve returns the server for a new session of the given domain,
// consulting the client's NS cache first — the domain's shared cache,
// or a flash crowd's fresh resolver; -1 when the whole cluster is down.
func (ct *cacheTier) resolve(cache *nameserver.Cache, domain int) int {
	now := ct.sim.Now()
	if server, ok := cache.Lookup(now); ok {
		return server
	}
	rep := authority(ct.replicas, domain)
	var d core.Decision
	var err error
	if ct.ecs != nil {
		var qd engine.QueryDecision
		qd, err = ct.ecs.decide(rep.eng, domain)
		d = qd.Decision
	} else {
		d, err = rep.eng.Decide(domain)
	}
	if err != nil {
		if errors.Is(err, core.ErrNoServers) {
			ct.res.FailedResolves++
			return -1
		}
		ct.fail(err)
		return 0
	}
	ct.res.AddressRequests++
	// The NS-applied TTL (after any non-cooperative clamp) bounds how
	// long this mapping can pin traffic to the chosen server. Decide
	// already noted now+TTL in the engine's ledger; a clamped-up TTL
	// lengthens the outstanding-mapping window past it, which a
	// replicated DNS must also gossip.
	if effective := cache.Store(now, d.Server, d.TTL); effective > d.TTL {
		rep.eng.NoteMapping(d.Server, now+effective)
		if rep.node != nil {
			rep.node.NoteLedger()
		}
	}
	sn := rep.state.Snapshot()
	if sn.Draining(d.Server) || !sn.Member(d.Server) {
		ct.res.PostDrainMappings++
	}
	return d.Server
}

// collect folds the tier's cache counters — the domains' and every
// flash crowd resolver's — into the result.
func (ct *cacheTier) collect(res *Result) {
	for _, c := range ct.caches {
		st := c.Stats()
		res.CacheHits += st.Hits
		res.ClampedTTLs += st.Clamped
	}
}
