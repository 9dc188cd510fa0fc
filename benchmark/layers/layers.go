// Package layers times the repository's modules one at a time, from
// outside, through their public functions: the pre-generated query
// stream is pushed through each layer in batches, a span is recorded
// around every batch call, and a layer's per-operation cost is the
// median batch divided by the batch size.
//
// It is kept apart from the end-to-end benchmark on purpose. This
// package imports the repository's internals and breaks when their
// APIs change; the end-to-end numbers, which only need the server's
// binary and sockets, do not.
//
// Probes call only functions the roadmap keeps: not the legacy
// dnswire.Unpack, not the answer cache.
package layers

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnslb/benchmark/loadgen"
	"dnslb/internal/core"
	"dnslb/internal/dnsserver"
	"dnslb/internal/dnswire"
	"dnslb/internal/engine"
	"dnslb/internal/replication"
	"dnslb/internal/sim"
	"dnslb/internal/simcore"
)

// Batch is the number of operations inside one span.
const Batch = 1024

// Metric is one per-layer number.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Config describes the deployment the probes assemble in-process: the
// same one the end-to-end benchmark runs as a subprocess.
type Config struct {
	Ring       *loadgen.Ring // UDP-framed stream of the workload under test
	Zone       string
	Capacities []float64
	Domains    int
	Policy     string // the server's default policy
	TempDir    string // where the checkpoint probe may write
	SimReps    int    // repetitions of each simulator probe (median reported)
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink atomic.Uint64

// prober records spans and derives per-operation costs from them.
type prober struct {
	cfg     Config
	epoch   time.Time
	mu      sync.Mutex
	spans   []loadgen.Span
	metrics []Metric
	err     error
	subnets []netip.Prefix // ring entry → its ECS /24
	domains []int          // ring entry → the server domain of that /24
}

func (p *prober) now() int64 { return int64(time.Since(p.epoch)) }

// fail records the first error a measured call returned; probes run
// their loops to the end and report it afterwards.
func (p *prober) fail(err error) {
	if err == nil {
		return
	}
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

func (p *prober) add(name string, v float64, unit string) {
	p.metrics = append(p.metrics, Metric{name, v, unit})
}

// span records one interval and returns its index plus one, the form
// Span.Parent takes.
func (p *prober) span(name string, parent int, id uint32, start, end int64) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.spans = append(p.spans, loadgen.Span{Name: name, Start: start, End: end, Parent: parent, ID: id})
	return len(p.spans)
}

// root opens a probe's enclosing span; close it with end.
func (p *prober) root(name string) (id int, end func()) {
	id = p.span(name, 0, 0, p.now(), 0)
	return id, func() {
		p.mu.Lock()
		p.spans[id-1].End = p.now()
		p.mu.Unlock()
	}
}

// perOp pushes the whole ring through op in batches of Batch and
// returns the median batch's ns per operation.
func (p *prober) perOp(name string, op func(i int)) float64 {
	root, end := p.root(name)
	defer end()
	return p.batches(name, root, op)
}

func (p *prober) batches(name string, root int, op func(i int)) float64 {
	per := make([]float64, 0, loadgen.RingSize/Batch)
	for b := 0; b < loadgen.RingSize/Batch; b++ {
		start := p.now()
		for i := b * Batch; i < (b+1)*Batch; i++ {
			op(i)
		}
		stop := p.now()
		p.span(name, root, uint32(b), start, stop)
		per = append(per, float64(stop-start)/Batch)
	}
	return loadgen.Median(per)
}

// parallel runs the same batches from n goroutines at once, each with
// the op built for it, and returns the median ns per operation over
// all of them: what one caller pays while n contend.
func (p *prober) parallel(name string, n int, mk func(g int) func(i int)) float64 {
	prev := runtime.GOMAXPROCS(max(n, runtime.GOMAXPROCS(0)))
	defer runtime.GOMAXPROCS(prev)
	root, end := p.root(name)
	defer end()
	per := make([]float64, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[g] = p.batches(name, root, mk(g))
		}()
	}
	wg.Wait()
	return loadgen.Median(per)
}

// perCall times calls single invocations of fn, with prepare run
// untimed before each, and returns the interquartile mean in µs.
func (p *prober) perCall(name string, calls int, prepare func(k int), fn func(k int)) float64 {
	root, end := p.root(name)
	defer end()
	us := make([]float64, 0, calls)
	for k := 0; k < calls; k++ {
		if prepare != nil {
			prepare(k)
		}
		start := p.now()
		fn(k)
		stop := p.now()
		p.span(name, root, uint32(k), start, stop)
		us = append(us, float64(stop-start)/1e3)
	}
	return loadgen.MidMean(us)
}

// Run executes every probe and returns the metrics and the spans.
func Run(cfg Config) ([]Metric, []loadgen.Span, error) {
	p := &prober{cfg: cfg, epoch: time.Now()}
	for i := 0; i < loadgen.RingSize; i++ {
		s := cfg.Ring.ECS(i)
		p.subnets = append(p.subnets, netip.PrefixFrom(netip.AddrFrom4([4]byte{s[0], s[1], s[2], 0}), 24))
		p.domains = append(p.domains, loadgen.DomainOf(s, cfg.Domains))
	}
	for _, probe := range []func() error{p.wire, p.engine, p.core, p.replication, p.checkpoint, p.simulator} {
		if err := probe(); err != nil {
			return nil, nil, err
		}
		if p.err != nil {
			return nil, nil, fmt.Errorf("layers: %w", p.err)
		}
	}
	return p.metrics, p.spans, nil
}

// assembly is the scheduler stack the live server builds at start-up.
type assembly struct {
	state  *core.State
	policy *core.Policy
	clock  *engine.ManualClock
	eng    *engine.Engine
}

// assemble builds state, policy and — unless estimator is "none" — an
// engine the way dnsserver.New does: prefix-hash mapper, default alpha.
// The clock is manual and advanced by the caller, so that runs do not
// depend on how fast the host happens to be.
func (p *prober) assemble(policy, estimator string, tap func(int, core.Decision)) (*assembly, error) {
	cluster, err := core.NewCluster(p.cfg.Capacities)
	if err != nil {
		return nil, err
	}
	a := &assembly{clock: &engine.ManualClock{}}
	if a.state, err = core.NewState(cluster, p.cfg.Domains); err != nil {
		return nil, err
	}
	if err := a.state.SetWeights(p.cfg.Ring.Weight); err != nil {
		return nil, err
	}
	a.policy, err = core.NewPolicy(core.PolicyConfig{
		Name: policy, State: a.state,
		Rand: simcore.NewStream(1, "layers"),
		Now:  a.clock.Now,
	})
	if err != nil {
		return nil, err
	}
	if estimator == "none" {
		return a, nil
	}
	est, err := core.NewLoadEstimator(estimator, p.cfg.Domains, core.DefaultEstimatorAlpha)
	if err != nil {
		return nil, err
	}
	a.eng, err = engine.New(engine.Config{
		Policy: a.policy, Clock: a.clock, Estimator: est, OnDecision: tap,
		Mapper: dnsserver.PrefixHashMapper(p.cfg.Domains),
	})
	return a, err
}

// tick advances an assembly's clock by the mean inter-arrival time of
// the stream, once per operation.
func (a *assembly) tick(i int) { a.clock.Set(float64(i) * 50e-6) }

var resolver = netip.MustParseAddr("127.0.0.1")

// wire times the two dnswire calls on the default server's query path.
func (p *prober) wire() error {
	ring := p.cfg.Ring
	unpack := func(i int) {
		q := dnswire.GetQuery()
		if err := q.UnpackQuery(ring.Query(i)); err != nil {
			p.fail(fmt.Errorf("UnpackQuery rejected generated query %d: %w", i, err))
		}
		sink.Add(uint64(q.Header.ID))
		dnswire.PutQuery(q)
	}
	p.add("dnswire.unpack_query_ns", p.perOp("dnswire.unpack_query", unpack), "ns")
	p.add("dnswire.unpack_query_allocs", testing.AllocsPerRun(1000, func() { unpack(0) }), "count")

	// The default server's answer: build a Message holding the question,
	// one A record and the OPT echo of the client subnet, then pack it.
	zoneName := dnswire.CanonicalName(p.cfg.Zone)
	buf := make([]byte, 0, 512)
	answer := func(i int) {
		m := &dnswire.Message{
			Header:    dnswire.Header{ID: uint16(i), Response: true, Authoritative: true},
			Questions: []dnswire.Question{{Name: zoneName, Type: dnswire.TypeA, Class: dnswire.ClassIN}},
			Answers: []dnswire.ResourceRecord{{
				Name: zoneName, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 240,
				Data: dnswire.A{Addr: netip.AddrFrom4([4]byte{10, 0, 0, byte(1 + i%7)})},
			}},
		}
		echo := dnswire.EchoClientSubnet(dnswire.ClientSubnet{Prefix: p.subnets[i]}, 24)
		p.fail(m.SetClientSubnet(echo, dnswire.MaxUDPPayload))
		out, err := m.AppendPack(buf[:0])
		p.fail(err)
		sink.Add(uint64(len(out)))
	}
	p.add("dnswire.append_pack_ns", p.perOp("dnswire.append_pack", answer), "ns")
	p.add("dnswire.append_pack_allocs", testing.AllocsPerRun(1000, func() { answer(0) }), "count")

	// The cold path's negative answer: NXDOMAIN with the zone SOA.
	soa := dnswire.ResourceRecord{
		Name: zoneName, Type: dnswire.TypeSOA, Class: dnswire.ClassIN, TTL: 60,
		Data: dnswire.SOA{MName: "ns1." + zoneName, RName: "hostmaster." + zoneName,
			Serial: 1, Refresh: 3600, Retry: 600, Expire: 86400, Minimum: 60},
	}
	nx := func(i int) {
		m := &dnswire.Message{
			Header:    dnswire.Header{ID: uint16(i), Response: true, Authoritative: true, RCode: dnswire.RCodeNXDomain},
			Questions: []dnswire.Question{{Name: "ftp." + zoneName, Type: dnswire.TypeA, Class: dnswire.ClassIN}},
			Authority: []dnswire.ResourceRecord{soa},
		}
		out, err := m.AppendPack(buf[:0])
		p.fail(err)
		sink.Add(uint64(len(out)))
	}
	p.add("dnswire.append_pack_nxdomain_ns", p.perOp("dnswire.append_pack_nxdomain", nx), "ns")
	return nil
}

// engine times DecideQuery — classification, policy, TTL, ledger and
// estimator tap — under both estimator kinds, with and without a
// client subnet, alone and from every processor at once.
func (p *prober) engine() error {
	decide := func(a *assembly, ecs bool) func(int) {
		return func(i int) {
			a.tick(i)
			qc := engine.QueryContext{Resolver: resolver, Transport: engine.TransportUDP}
			if ecs {
				qc.ClientSubnet = p.subnets[i]
			}
			qd, err := a.eng.DecideQuery(qc)
			p.fail(err)
			sink.Add(uint64(qd.Server))
		}
	}
	for _, kind := range core.EstimatorKinds() {
		a, err := p.assemble(p.cfg.Policy, kind, nil)
		if err != nil {
			return err
		}
		op := decide(a, true)
		p.add("engine.decide_query_ns."+kind, p.perOp("engine.decide_query."+kind, op), "ns")
		if kind == core.EstimatorReactive {
			p.add("engine.decide_query_allocs", testing.AllocsPerRun(1000, func() { op(0) }), "count")
			p.add("engine.decide_query_ns.noecs", p.perOp("engine.decide_query.noecs", decide(a, false)), "ns")
			ledger := a.eng.Ledger()
			p.add("engine.ledger_extend_ns", p.perOp("engine.ledger_extend", func(i int) {
				ledger.Extend(i%len(p.cfg.Capacities), float64(i))
			}), "ns")
		}
	}
	for _, kind := range core.EstimatorKinds() {
		a, err := p.assemble(p.cfg.Policy, kind, nil)
		if err != nil {
			return err
		}
		ns := p.parallel("engine.decide_query_parallel."+kind, runtime.NumCPU(),
			func(int) func(int) { return decide(a, true) })
		p.add("engine.decide_query_parallel_ns."+kind, ns, "ns")
	}
	return nil
}

// metricName makes a policy name fit a metric name: "PRR2-TTL/K" → "PRR2-TTL.K".
func metricName(policy string) string { return strings.ReplaceAll(policy, "/", ".") }

// core times the policy's Schedule per discipline, the two estimator
// kinds' Roll, and the two state writes the feedback loop makes.
func (p *prober) core() error {
	for _, name := range []string{"RR", "RR2", "PRR2-TTL/K", "DRR2-TTL/S_K", "DAL"} {
		a, err := p.assemble(name, "none", nil)
		if err != nil {
			return err
		}
		op := func(i int) {
			a.tick(i)
			d, err := a.policy.Schedule(p.domains[i])
			p.fail(err)
			sink.Add(uint64(d.Server))
		}
		p.add("core.schedule_ns."+metricName(name), p.perOp("core.schedule."+name, op), "ns")
		if name == "DAL" {
			p.add("core.schedule_allocs.DAL", testing.AllocsPerRun(1000, func() { op(0) }), "count")
		}
	}

	// One collection interval as the churn workload plays it: a thousand
	// TTL handouts observed, a HITS report per domain, then the Roll.
	for _, kind := range core.EstimatorKinds() {
		est, err := core.NewLoadEstimator(kind, p.cfg.Domains, core.DefaultEstimatorAlpha)
		if err != nil {
			return err
		}
		fc, _ := est.(core.Forecaster)
		feed := func(k int) {
			for j := 0; j < 1000; j++ {
				i := (k*1000 + j) % loadgen.RingSize
				if fc != nil {
					fc.ObserveDecision(p.domains[i], float64(k)*0.1+float64(j)*1e-4, 240)
				}
			}
			for d, w := range p.cfg.Ring.Weight {
				est.Record(d, 50*w)
			}
		}
		p.add("core.estimator_roll_us."+kind,
			p.perCall("core.estimator_roll."+kind, 64, feed, func(int) { est.Roll(0.1) }), "us")
	}

	a, err := p.assemble(p.cfg.Policy, "none", nil)
	if err != nil {
		return err
	}
	flat := make([]float64, p.cfg.Domains)
	for i := range flat {
		flat[i] = 1 / float64(len(flat))
	}
	p.add("core.set_weights_us", p.perCall("core.set_weights", 256, nil, func(k int) {
		w := p.cfg.Ring.Weight
		if k%2 == 1 {
			w = flat
		}
		p.fail(a.state.SetWeights(w))
	}), "us")
	p.add("core.set_alarm_us", p.perCall("core.set_alarm", 256, nil, func(k int) {
		p.fail(a.state.SetAlarm(k/2%len(p.cfg.Capacities), k%2 == 0))
	}), "us")
	return nil
}

// replication times a gossip round between two replicas: flushing the
// delta a thousand decisions and a hit report per domain produced, and
// merging it on the peer.
func (p *prober) replication() error {
	var nodes [2]*replication.Node
	var first *assembly
	for r := range nodes {
		var a *assembly
		a, err := p.assemble(p.cfg.Policy, core.EstimatorReactive, func(d int, dec core.Decision) {
			if n := nodes[r]; n != nil {
				n.Observe(d, dec)
			}
		})
		if err != nil {
			return err
		}
		nodes[r], err = replication.NewNode(replication.NodeConfig{
			Origin: fmt.Sprintf("r%d", r), Epoch: 1, Engine: a.eng, Base: replication.IdentityBase{},
		})
		if err != nil {
			return err
		}
		if r == 0 {
			first = a
		}
	}
	const rounds = 64
	work := func(k int) {
		for j := 0; j < 1000; j++ {
			i := (k*1000 + j) % loadgen.RingSize
			first.clock.Set(float64(k*1000+j) * 1e-3)
			_, err := first.eng.DecideQuery(engine.QueryContext{Resolver: resolver, ClientSubnet: p.subnets[i]})
			p.fail(err)
		}
		for d, w := range p.cfg.Ring.Weight {
			nodes[0].AddHits(d, 50*w)
		}
	}
	flushed := make([][]*replication.Delta, 0, rounds)
	p.add("replication.flush_us", p.perCall("replication.flush", rounds, work, func(int) {
		flushed = append(flushed, nodes[0].Flush())
	}), "us")
	p.add("replication.merge_us", p.perCall("replication.merge", rounds, nil, func(k int) {
		for _, d := range flushed[k] {
			_, err := nodes[1].Merge(d)
			p.fail(err)
		}
	}), "us")
	return nil
}

// checkpoint times writing the server's soft state to disk.
func (p *prober) checkpoint() error {
	a, err := p.assemble(p.cfg.Policy, "none", nil)
	if err != nil {
		return err
	}
	addrs := make([]netip.Addr, len(p.cfg.Capacities))
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)})
	}
	srv, err := dnsserver.New(dnsserver.Config{Zone: p.cfg.Zone, ServerAddrs: addrs, Policy: a.policy, Addr: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	path := filepath.Join(p.cfg.TempDir, "probe.checkpoint")
	defer os.Remove(path)
	p.add("dnsserver.checkpoint_write_us", p.perCall("dnsserver.checkpoint_write", 32, nil, func(int) {
		p.fail(srv.WriteCheckpoint(path))
	}), "us")
	return nil
}

// simSeed is fixed rather than taken from the run's seed: sim.events_total
// is a count that must repeat exactly from run to run of the same code.
const simSeed = 1

// simulator times the three simulator assemblies at the paper's scale
// and the bare event loop underneath them.
func (p *prober) simulator() error {
	type shape struct {
		name string
		set  func(*sim.Config)
	}
	shapes := []shape{
		{"single", func(*sim.Config) {}},
		{"estimated", func(c *sim.Config) { c.OracleWeights, c.Estimator = false, core.EstimatorPredictive }},
		{"replicated", func(c *sim.Config) { c.Replicas, c.ReplicationInterval = 3, 1 }},
	}
	for _, sh := range shapes {
		cfg := sim.DefaultConfig(p.cfg.Policy)
		cfg.Seed = simSeed
		sh.set(&cfg)
		var walls, allocs []float64
		var events uint64
		root, end := p.root("sim." + sh.name)
		for r := 0; r < max(1, p.cfg.SimReps); r++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := p.now()
			res, err := sim.Run(cfg)
			stop := p.now()
			runtime.ReadMemStats(&after)
			if err != nil {
				end()
				return fmt.Errorf("layers: sim %s: %w", sh.name, err)
			}
			p.span("sim."+sh.name, root, uint32(r), start, stop)
			if r > 0 && res.EventsFired != events {
				end()
				return fmt.Errorf("layers: sim %s fired %d events, then %d: the same seed must repeat", sh.name, events, res.EventsFired)
			}
			events = res.EventsFired
			walls = append(walls, float64(stop-start)/1e9)
			allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(events))
		}
		end()
		wall := loadgen.Median(walls)
		p.add("sim."+sh.name+".wall_s", wall, "s")
		switch sh.name {
		case "single":
			p.add("sim.events_total", float64(events), "count")
			p.add("sim.events_per_s", float64(events)/wall, "1/s")
			p.add("sim.allocs_per_event", loadgen.Median(allocs), "count")
		case "replicated":
			p.add("sim.replicated.events_per_s", float64(events)/wall, "1/s")
		}
	}

	// The event loop alone: a thousand timers that each re-arm
	// themselves at a random later time, stepped one event at a time.
	s := simcore.New(simSeed)
	delays := s.Stream("layers.step")
	var rearm func()
	rearm = func() { s.Schedule(delays.Exp(1), rearm) }
	for i := 0; i < 1000; i++ {
		rearm()
	}
	drained := false
	p.add("simcore.step_ns", p.perOp("simcore.step", func(int) {
		if !s.Step() {
			drained = true
		}
	}), "ns")
	if drained {
		return fmt.Errorf("layers: simcore event list drained under self-re-arming timers")
	}
	return nil
}
