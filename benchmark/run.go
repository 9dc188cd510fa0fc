package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"dnslb/benchmark/loadgen"
	"dnslb/benchmark/simload"
)

// env is what every run on this host shares.
type env struct {
	bin      string // the built dnslb-server
	conns    int    // C: the generator's load goroutines, each driving one connection (HTTP: a few)
	srvProcs int    // the server's GOMAXPROCS
	// The host's processors are split between the two sides, so that
	// neither the generator's polling nor the server's GC ever runs on
	// the other's processors: generator on genCPUs, server on srvCPUs.
	genCPUs, srvCPUs, allCPUs cpuSet
}

// newEnv sizes generator and server from the processor count:
// C = max(1, nproc/2) load goroutines, the rest of the processors for
// the server. The generator runs with C+1 Ps: its load goroutines
// never park, and the extra P lets the report-socket goroutines run
// without waiting for one of them to be preempted.
func newEnv(bin string) *env {
	nproc := runtime.NumCPU()
	c := max(1, nproc/2)
	runtime.GOMAXPROCS(c + 1)
	e := &env{bin: bin, conns: c, srvProcs: max(1, nproc-c), allCPUs: cpuRange(0, nproc)}
	e.genCPUs, e.srvCPUs = cpuRange(0, c), cpuRange(c, nproc)
	if nproc == 1 {
		e.srvCPUs = e.allCPUs
	}
	return e
}

// backends is the set of addresses an A answer may carry.
func backends() loadgen.Servers {
	s := loadgen.Servers{}
	for i := range capacities {
		s[backendAddr(i)] = true
	}
	return s
}

// stream returns the workload's query stream for a seed.
func (w *workload) stream(seed uint64) loadgen.StreamConfig {
	return loadgen.StreamConfig{
		Seed: seed, Zone: zone, Sibling: sibling,
		Domains: nDomains, Subnets: nSubnets, Theta: zipfTheta,
		Mix: w.mix, RateQPS: w.rate, Framing: w.framing, Host: "bench.invalid",
	}
}

// generator returns the options of the workload's generator against a
// server on ports p, with the given number of load goroutines.
func (w *workload) generator(p ports, loops int) loadgen.Options {
	opt := loadgen.Options{
		Addr: p.dnsAddr(), Framing: w.framing, Conns: loops * max(1, w.conns), Loops: loops,
		Window: w.window, Timeout: queryTimeout, Servers: backends(),
	}
	if w.framing == loadgen.FrameHTTP {
		opt.Addr = p.httpAddr()
	}
	return opt
}

// live is a started server with its backends played: the heartbeat
// every workload needs, and the feedback churn when asked for.
type live struct {
	srv       *server
	ports     ports
	heartbeat *loadgen.Reporter
	churn     *loadgen.Reporter
}

// bringUp starts the server and times start → first correct answer
// over the workload's own transport.
func (e *env) bringUp(w *workload, ring *loadgen.Ring, extra []string, logName string) (*live, time.Duration, error) {
	p, err := freePorts()
	if err != nil {
		return nil, 0, err
	}
	opt := w.generator(p, 1)
	opt.Conns = 1
	// A query sent before the port is bound is lost; ask again quickly.
	// A try takes up to twice the timeout, 0.2 ms like the wait between
	// two connection attempts below: the grid the set-up time is read on.
	// (Asking faster still, or connecting in a spin, slows the server's
	// start-up down and makes it erratic.)
	opt.Timeout = 100 * time.Microsecond
	flags := append(append([]string{}, w.flags...), extra...)
	begin := time.Now()
	srv, err := startServer(e.bin, logName, p, e.srvProcs, e.srvCPUs, e.genCPUs, w.http, flags)
	if err != nil {
		return nil, 0, err
	}
	for {
		if srv.exited() {
			srv.stop()
			return nil, 0, fmt.Errorf("dnslb-server exited during start-up:\n%s", srv.logTail())
		}
		if time.Since(begin) > 10*time.Second {
			srv.stop()
			return nil, 0, fmt.Errorf("no correct answer within 10 s of starting dnslb-server:\n%s", srv.logTail())
		}
		g, err := loadgen.Dial(ring, opt)
		if err != nil { // TCP: nobody listening yet
			time.Sleep(200 * time.Microsecond)
			continue
		}
		res, err := g.Burst(1, opt.Timeout)
		g.Close()
		if err == nil && res.Correct == 1 {
			return &live{srv: srv, ports: p}, time.Since(begin), nil
		}
	}
}

// play starts the backend stand-ins on the report socket.
func (l *live) play(heartbeat bool, churn func(int) []string) error {
	var err error
	if heartbeat {
		l.heartbeat, err = loadgen.StartReporter(l.ports.reportAddr(), heartbeatEvery, loadgen.Heartbeat(len(capacities)))
		if err != nil {
			return err
		}
	}
	if churn != nil {
		l.churn, err = loadgen.StartReporter(l.ports.reportAddr(), churnEvery, churn)
	}
	return err
}

// down stops the stand-ins and the server; it returns what the churn
// reporter measured, if one ran.
func (l *live) down() (churn loadgen.ReportStats, err error) {
	if l.churn != nil {
		churn, err = l.churn.Stop()
	}
	if l.heartbeat != nil {
		if _, herr := l.heartbeat.Stop(); err == nil {
			err = herr
		}
	}
	l.srv.stop()
	return churn, err
}

// slice is one of the run's interleaved measurements: a closed-loop
// window, then an open-loop window.
type slice struct {
	traced      bool    // the closed-loop window recorded a span per query
	qps         float64 // correct answers per second, closed loop
	cpu         float64 // server CPU µs per answer, closed loop
	cpuUtil     float64 // server CPU time ÷ (wall × its GOMAXPROCS), closed loop
	ctxPerQuery float64 // server context switches per answer, closed loop
	rttP999     float64 // µs send → answer, closed loop
	offered     float64 // queries sent per second, open loop
	p50, p99    float64 // µs due → answer, open loop
}

// phases is what the server part of a run measured.
type phases struct {
	setup  []float64 // seconds, one per start-up cycle
	slices []slice
	// The server's CPU seconds by mode, and its correct answers, summed
	// over the capacity windows: the split by mode comes in 10 ms ticks,
	// too coarse for one window.
	capUser    float64
	capSys     float64
	capAnswers float64
	sent       uint64
	fails      [loadgen.NumFails]uint64
	stray      uint64
	lateP99    float64    // µs a send ran behind its due time, open loop, all windows pooled
	samples    int        // latency samples behind p50/p99, all windows
	end        procSample // the server at the end of the run
	churn      loadgen.ReportStats
	ringHash   [32]byte
}

func (ph *phases) failed() (n uint64) {
	for _, f := range ph.fails[loadgen.FailTimeout:] {
		n += f
	}
	return n
}

func (ph *phases) count(r *loadgen.Result) {
	ph.sent += r.Sent
	ph.stray += r.Stray
	for i, n := range r.Fails {
		ph.fails[i] += n
	}
}

// column returns one field of every slice.
func (ph *phases) column(f func(*slice) float64) []float64 {
	out := make([]float64, len(ph.slices))
	for i := range ph.slices {
		out[i] = f(&ph.slices[i])
	}
	return out
}

// median returns the median over the slices of one field.
func (ph *phases) median(f func(*slice) float64) float64 { return loadgen.Median(ph.column(f)) }

// quiet returns the mean of the three best of vs: the highest when
// higher is better, the lowest otherwise. The host's interference only
// ever makes a window worse, and it comes in bursts, so the best of
// many short windows are the ones it missed, and they say what the code
// costs. Three, because the single best follows one lucky draw, and
// the more windows are averaged the more the result follows how large
// a share of the run the host disturbed (README.md, "Steadiness").
func quiet(vs []float64, higher bool) float64 {
	vs = slices.Clone(vs)
	slices.Sort(vs)
	if higher {
		slices.Reverse(vs)
	}
	vs = vs[:min(3, len(vs))]
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// options vary a run away from the recorded benchmark; the zero value
// is the benchmark as BENCHMARK.json defines it.
type options struct {
	serverFlags []string         // appended verbatim to the server's command line
	noHeartbeat bool             // do not play the backends (the guard test)
	window      int              // override the workload's closed-loop window
	noECS       bool             // send the A+ECS share of the stream without ECS
	spans       *loadgen.SpanLog // record a span per query in the closed-loop windows
	quick       bool             // three start-up cycles, a short warm-up, no simulator rounds before the server phases
}

// variant returns the workload with the run's overrides applied.
func (w *workload) variant(o options) *workload {
	wl := *w
	if o.window > 0 {
		wl.window = o.window
	}
	if o.noECS {
		wl.mix[loadgen.KindA] += wl.mix[loadgen.KindAECS]
		wl.mix[loadgen.KindAECS] = 0
	}
	return &wl
}

// start brings the server up, timing start → first correct answer, and
// plays its backends.
func (e *env) start(w *workload, ring *loadgen.Ring, o options) (*live, time.Duration, error) {
	l, took, err := e.bringUp(w, ring, o.serverFlags, "dnslb-server.log")
	if err != nil {
		return nil, 0, err
	}
	var churn func(int) []string
	if w.churn {
		churn = loadgen.Churn(ring.Weight, len(capacities), churnEvery, churnHits)
	}
	if err := l.play(!o.noHeartbeat, churn); err != nil {
		l.down()
		return nil, 0, err
	}
	return l, took, nil
}

// cycle is one more set-up: a second instance beside the one under
// test (which is idle meanwhile), start → first correct answer, stopped
// again.
func (e *env) cycle(w *workload, ring *loadgen.Ring, o options) (time.Duration, error) {
	l, took, err := e.bringUp(w, ring, o.serverFlags, "dnslb-server-setup.log")
	if err != nil {
		return 0, err
	}
	l.srv.stop()
	return took, nil
}

// serve runs the server part of a workload: start-up, warm-up, then
// closed-loop capacity windows and open-loop rate windows in turn, with
// the remaining set-up cycles between them at even distances. capDur
// and rateDur are the totals of each kind; each rate window lasts
// rateWindow, and there are as many capacity windows.
func (e *env) serve(w *workload, seed uint64, capDur, rateDur time.Duration, o options) (*phases, error) {
	w = w.variant(o)
	cycles, warm := setupCycles, warmup
	if o.quick {
		cycles, warm = 3, warmup/3
	}
	n := max(2, int(rateDur/rateWindow))
	ring, err := loadgen.NewRing(w.stream(seed))
	if err != nil {
		return nil, err
	}
	ph := &phases{ringHash: ring.Hash}

	if err := confineSelf(e.genCPUs); err != nil {
		return nil, err
	}
	defer confineSelf(e.allCPUs)
	l, took, err := e.start(w, ring, o)
	if err != nil {
		return nil, err
	}
	ph.setup = append(ph.setup, took.Seconds())
	stopped := false
	defer func() {
		if !stopped {
			l.down()
		}
	}()
	g, err := loadgen.Dial(ring, w.generator(l.ports, e.conns))
	if err != nil {
		return nil, err
	}
	defer g.Close()
	if _, err := g.Closed(warm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	// Capacity and rate windows alternate, and they are short: the
	// host's interference comes in bursts of tens to hundreds of
	// milliseconds, so among two hundred windows of 40–50 ms spread over
	// the whole run some are undisturbed even in a bad stretch, which
	// cannot be said of five windows of two seconds. In a traced run
	// every second capacity window records spans; the untraced ones
	// between them are what tracing overhead is measured against.
	//
	// The set-up cycles are spread over the run for a like reason: how
	// long a process takes to start follows the host's mood of the
	// second, and cycles done in one batch all meet the same mood (run to
	// run, the median of 25 in a batch spread by 20 %).
	every := max(1, n/max(1, cycles-1))
	var late []uint32
	for i := 0; i < n; i++ {
		if i%every == every-1 && len(ph.setup) < cycles {
			took, err := e.cycle(w, ring, o)
			if err != nil {
				return nil, fmt.Errorf("set-up cycle %d: %w", len(ph.setup), err)
			}
			ph.setup = append(ph.setup, took.Seconds())
		}
		traced := o.spans != nil && i%2 == 1
		if traced {
			g.SetSpans(o.spans)
		}
		before, err := l.srv.sample()
		if err != nil {
			return nil, err
		}
		closed, err := g.Closed(capDur / time.Duration(n))
		if err != nil {
			return nil, fmt.Errorf("capacity window %d: %w", i, err)
		}
		after, err := l.srv.sample()
		if err != nil {
			return nil, err
		}
		g.SetSpans(nil)
		open, err := g.Open(rateDur / time.Duration(n))
		if err != nil {
			return nil, fmt.Errorf("rate window %d: %w", i, err)
		}
		answers, wall := float64(closed.Correct), closed.Elapsed.Seconds()
		user, sys := after.user-before.user, after.sys-before.sys
		cpu := after.cpu - before.cpu
		if after.cpu == 0 { // no schedstat on this kernel: 10 ms ticks
			cpu = user + sys
		}
		ph.capUser, ph.capSys, ph.capAnswers = ph.capUser+user, ph.capSys+sys, ph.capAnswers+answers
		ph.slices = append(ph.slices, slice{
			traced:      traced,
			qps:         answers / wall,
			cpu:         cpu * 1e6 / answers,
			cpuUtil:     cpu / (wall * float64(e.srvProcs)),
			ctxPerQuery: float64(after.ctxSwitches-before.ctxSwitches) / answers,
			rttP999:     float64(loadgen.Percentile(closed.Latency, 0.999)) / 1e3,
			offered:     float64(open.Sent) / open.Elapsed.Seconds(),
			p50:         float64(loadgen.Percentile(open.Latency, 0.50)) / 1e3,
			p99:         float64(loadgen.Percentile(open.Latency, 0.99)) / 1e3,
		})
		ph.count(closed)
		ph.count(open)
		ph.samples += len(open.Latency)
		late = append(late, open.Late...)
	}
	ph.lateP99 = float64(loadgen.Percentile(late, 0.99)) / 1e3
	if ph.end, err = l.srv.sample(); err != nil {
		return nil, err
	}
	// An open connection would keep the server's graceful shutdown
	// waiting for its drain deadline.
	g.Close()
	stopped = true
	if ph.churn, err = l.down(); err != nil {
		return nil, fmt.Errorf("report socket: %w", err)
	}
	return ph, nil
}

// side is what the fixed side probes of a traced run measured, against
// a server started for them with -http-addr and -estimator predictive:
// the transports and the report socket that the workload under test
// may not use at all, so that every traced run reports every layer.
type side struct {
	tcpSetupUs float64 // connect → first correct answer on a new TCP connection
	dohWireUs  float64 // p50 of POST /dns-query round trips
	dohJSONUs  float64 // p50 of GET /resolve round trips
	report     loadgen.ReportStats
	sent       uint64
	failed     uint64
}

const (
	sideConnects = 100
	sideRequests = 400
	sideReport   = 1500 * time.Millisecond
)

// sideProbes runs the fixed probes. idleReport asks for the report
// socket to be exercised too (workloads without churn: with churn, the
// numbers taken under load during the run are reported instead).
func (e *env) sideProbes(seed uint64, idleReport bool) (*side, error) {
	probe := workload{
		framing: loadgen.FrameTCP, window: 1, rate: 1000, http: true,
		mix: loadgen.Mix{loadgen.KindAECS: 1}, flags: []string{"-estimator", "predictive"},
	}
	tcpRing, err := loadgen.NewRing(probe.stream(seed))
	if err != nil {
		return nil, err
	}
	if err := confineSelf(e.genCPUs); err != nil {
		return nil, err
	}
	defer confineSelf(e.allCPUs)
	l, _, err := e.start(&probe, tcpRing, options{})
	if err != nil {
		return nil, err
	}
	defer l.down()
	sd := &side{}

	var setups []float64
	for i := 0; i < sideConnects; i++ {
		begin := time.Now()
		g, err := loadgen.Dial(tcpRing, probe.generator(l.ports, 1))
		if err != nil {
			return nil, err
		}
		res, err := g.Burst(1, queryTimeout)
		g.Close()
		if err != nil {
			return nil, err
		}
		setups = append(setups, float64(time.Since(begin))/1e3)
		sd.sent += res.Sent
		sd.failed += res.Failed()
	}
	sd.tcpSetupUs = loadgen.Median(setups)

	for _, k := range []loadgen.Kind{loadgen.KindAECS, loadgen.KindJSON} {
		doh := probe
		doh.framing, doh.mix = loadgen.FrameHTTP, loadgen.Mix{}
		doh.mix[k] = 1
		ring, err := loadgen.NewRing(doh.stream(seed))
		if err != nil {
			return nil, err
		}
		g, err := loadgen.Dial(ring, doh.generator(l.ports, 1))
		if err != nil {
			return nil, err
		}
		res, err := g.Burst(sideRequests, 10*time.Second)
		g.Close()
		if err != nil {
			return nil, err
		}
		p50 := float64(loadgen.Percentile(res.Latency, 0.50)) / 1e3
		if k == loadgen.KindJSON {
			sd.dohJSONUs = p50
		} else {
			sd.dohWireUs = p50
		}
		sd.sent += res.Sent
		sd.failed += res.Failed()
	}

	if idleReport {
		r, err := loadgen.StartReporter(l.ports.reportAddr(), churnEvery,
			loadgen.Churn(tcpRing.Weight, len(capacities), churnEvery, churnHits))
		if err != nil {
			return nil, err
		}
		time.Sleep(sideReport)
		if sd.report, err = r.Stop(); err != nil {
			return nil, err
		}
	}
	return sd, nil
}

// step is one rate of a sweep.
type step struct {
	offered, answered float64 // queries per second sent, and answered correctly
	p50, p99          float64 // µs from due time
	failed            uint64
}

// sweep measures the workload's closed-loop capacity, then offers
// open-loop load at the given fractions of it, one step each, against
// one server instance.
func (e *env) sweep(w *workload, seed uint64, fractions []float64, stepDur time.Duration, o options) (capacity float64, steps []step, err error) {
	w = w.variant(o)
	ring, err := loadgen.NewRing(w.stream(seed))
	if err != nil {
		return 0, nil, err
	}
	if err := confineSelf(e.genCPUs); err != nil {
		return 0, nil, err
	}
	defer confineSelf(e.allCPUs)
	l, _, err := e.start(w, ring, o)
	if err != nil {
		return 0, nil, err
	}
	defer l.down()
	g, err := loadgen.Dial(ring, w.generator(l.ports, e.conns))
	if err != nil {
		return 0, nil, err
	}
	if _, err = g.Closed(warmup); err == nil {
		var res *loadgen.Result
		if res, err = g.Closed(stepDur); err == nil {
			capacity = float64(res.Correct) / res.Elapsed.Seconds()
		}
	}
	g.Close()
	if err != nil {
		return 0, nil, err
	}
	for _, f := range fractions {
		at := *w
		at.rate = capacity * f
		ring, err := loadgen.NewRing(at.stream(seed))
		if err != nil {
			return 0, nil, err
		}
		g, err := loadgen.Dial(ring, at.generator(l.ports, e.conns))
		if err != nil {
			return 0, nil, err
		}
		res, err := g.Open(stepDur)
		g.Close()
		if err != nil {
			return 0, nil, err
		}
		steps = append(steps, step{
			offered:  float64(res.Sent) / stepDur.Seconds(),
			answered: float64(res.Correct) / res.Elapsed.Seconds(),
			p50:      float64(loadgen.Percentile(res.Latency, 0.50)) / 1e3,
			p99:      float64(loadgen.Percentile(res.Latency, 0.99)) / 1e3,
			failed:   res.Failed(),
		})
	}
	return capacity, steps, nil
}

// simulation accumulates the simulator rounds of a run.
type simulation struct {
	walls  []float64   // host seconds, one per round
	each   [][]float64 // host seconds of simulation i of the batch, one per round
	runs   int
	failed int
	errs   []string
}

// wall returns the host seconds of one round free of interference:
// every simulation of the batch counted at its fastest over the rounds
// (two to six: too few to average the best three). A burst is shorter
// than a round, so it rarely hits the same simulation in every round.
func (s *simulation) wall() (sum float64) {
	for _, ws := range s.each {
		sum += slices.Min(ws)
	}
	return sum
}

// rounds runs simulator rounds on the run's seed, every round the same
// batch: at least one, then as many more as fit in budget. The rounds
// run on one P — the simulator is sequential, and whether its GC finds
// a second processor idle is the host's business, not the code's — and
// after a collection, so that its GC pacing does not depend on how many
// latency samples the server phases happened to leave behind.
func (s *simulation) rounds(seed uint64, budget time.Duration) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	start := time.Now()
	var rd simload.Round
	for first := true; first || time.Since(start)+rd.Wall <= budget; first = false {
		rd = simload.RunRound(seed)
		s.walls = append(s.walls, rd.Wall.Seconds())
		if s.each == nil {
			s.each = make([][]float64, len(rd.Walls))
		}
		for i, w := range rd.Walls {
			s.each[i] = append(s.each[i], w.Seconds())
		}
		s.runs += rd.Runs
		s.failed += rd.Failed
		s.errs = append(s.errs, rd.Errors...)
	}
}
