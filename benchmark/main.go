// Command benchmark is the repository's ruler: it builds
// cmd/dnslb-server, runs it as a subprocess in its default
// configuration, drives it over real loopback sockets from one
// generator process, runs the simulator in-process, checks every
// answer, and prints every metric by name and unit. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"dnslb/benchmark/layers"
	"dnslb/benchmark/loadgen"
)

func main() {
	var (
		name        = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (required except with -repeat)")
		seed        = flag.Uint64("seed", 1, "seed of the query stream, the arrival schedule and the simulator rounds")
		seconds     = flag.Float64("seconds", runSeconds, "measuring time of one run, split between capacity windows, rate windows and the simulator")
		trace       = flag.Int("trace", 0, "1 = traced run: the per-layer metrics, and spans written to benchmark/out/trace.json")
		quick       = flag.Bool("quick", false, "short run for CI: -seconds 9 unless given, two start-up cycles, three windows per phase")
		repeat      = flag.Int("repeat", 0, "run K full sets of every workload, print each end-to-end metric's per-set values, spread and bound, and fail if a spread exceeds its bound")
		sweep       = flag.Bool("sweep", false, "closed-loop capacity, then stepped open-loop rates to the knee (used for RESULTS.md; never recorded in BENCHMARK.json)")
		serverFlags = flag.String("server-flags", "", "extra dnslb-server flags, passed verbatim (a variant; never recorded in BENCHMARK.json)")
		window      = flag.Int("window", 0, "variant: override the closed-loop window")
		noECS       = flag.Bool("no-ecs", false, "variant: send the A+ECS share of the stream without ECS")
	)
	flag.Parse()
	if *quick && !flagGiven("seconds") {
		*seconds = 9
	}
	o := options{serverFlags: strings.Fields(*serverFlags), window: *window, noECS: *noECS, quick: *quick}
	err := run(*name, *seed, *seconds, *trace != 0, *repeat, *sweep, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func flagGiven(name string) (given bool) {
	flag.Visit(func(f *flag.Flag) { given = given || f.Name == name })
	return given
}

func run(name string, seed uint64, seconds float64, traced bool, repeat int, sweep bool, o options) error {
	if seconds < 1 || seconds > 60 {
		return fmt.Errorf("-seconds %g out of range [1,60]", seconds)
	}
	w := findWorkload(name)
	if w == nil && repeat == 0 {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	repo, err := findRepo()
	if err != nil {
		return err
	}
	bin, err := buildServer(repo)
	if err != nil {
		return err
	}
	e := newEnv(bin)
	out := os.Stdout
	printHost(out, e)
	switch {
	case repeat > 0:
		return e.repeat(out, repeat, seed, seconds, o)
	case sweep:
		return e.printSweep(out, w, seed, o)
	case traced:
		rep, err := e.trace(w, seed, seconds, filepath.Join(repo, "benchmark", "out"), o)
		if err != nil {
			return err
		}
		return rep.print(out, perLayer)
	default:
		rep, err := e.measure(w, seed, seconds, o)
		if err != nil {
			return err
		}
		return rep.print(out, endToEnd)
	}
}

// printHost records where the numbers were taken.
func printHost(out io.Writer, e *env) {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	fmt.Fprintf(out, "host: nproc %d, cpu %q, kernel %s, %s, network loopback\n",
		runtime.NumCPU(), model, strings.TrimSpace(string(kernel)), runtime.Version())
	fmt.Fprintf(out, "sizing: generator %d connection(s) on cpus %#x, server GOMAXPROCS=%d on cpus %#x\n",
		e.conns, uint64(e.genCPUs), e.srvProcs, uint64(e.srvCPUs))
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run; its JSON form is the last line the
// benchmark prints.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	notes     []string
}

func (r *report) set(list []metric, name string, v float64) {
	for _, m := range list {
		if m.name == name {
			r.Metrics[name] = value{v, m.unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared in spec.go")
}

// print writes the notes, every metric of list by name and unit, and
// the JSON line. A metric of list the run did not produce is an error
// in the benchmark, reported instead of a result.
func (r *report) print(out io.Writer, list []metric) error {
	for _, m := range list {
		if _, ok := r.Metrics[m.name]; !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(out, n)
	}
	for _, m := range list {
		v := r.Metrics[m.name]
		fmt.Fprintf(out, "%-44s %16.4f %s\n", m.name, v.Value, v.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

// split divides the run's measuring time between the two server phases
// and the simulator.
func (w *workload) split(seconds float64) (capDur, rateDur, simBudget time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	capDur = time.Duration(seconds * w.capShare * float64(time.Second))
	rateDur = time.Duration(seconds * w.rateShare * float64(time.Second))
	return capDur, rateDur, total - capDur - rateDur
}

// measure is one untraced run: the end-to-end metrics.
func (e *env) measure(w *workload, seed uint64, seconds float64, o options) (*report, error) {
	capDur, rateDur, simBudget := w.split(seconds)
	// Half of the simulator rounds run before the server phases and half
	// after, so that a stretch of interference at either end of the run
	// cannot reach all of them.
	var sim simulation
	if !o.quick {
		sim.rounds(seed, simBudget/2)
	}
	ph, err := e.serve(w, seed, capDur, rateDur, o)
	if err != nil {
		return nil, err
	}
	sim.rounds(seed, simBudget/2)

	qps := ph.column(func(s *slice) float64 { return s.qps })
	cpu := ph.column(func(s *slice) float64 { return s.cpu })
	p50 := ph.column(func(s *slice) float64 { return s.p50 })
	p99 := ph.column(func(s *slice) float64 { return s.p99 })
	r := &report{Metrics: map[string]value{}}
	r.notes = append(r.notes,
		fmt.Sprintf("workload %s seed %d: ring sha256 %x", w.name, seed, ph.ringHash),
		fmt.Sprintf("per window: answered_qps %.0f", qps),
		fmt.Sprintf("per window: server_cpu_us_per_query %.3f", cpu),
		fmt.Sprintf("per window: latency_p50_us %.1f", p50),
		fmt.Sprintf("per window: latency p99 %.1f us", p99),
		fmt.Sprintf("queries: sent %d failed %d by reason %v stray %d; sends late p99 %.1f us",
			ph.sent, ph.failed(), failsByName(ph.fails[:]), ph.stray, ph.lateP99),
		fmt.Sprintf("set-up cycles %.4f s; simulator rounds %.3f s", ph.setup, sim.walls),
	)
	r.notes = append(r.notes, sim.errs...)
	r.set(endToEnd, "answered_qps", quiet(qps, true))
	r.set(endToEnd, "server_cpu_us_per_query", quiet(cpu, false))
	r.set(endToEnd, "latency_p50_us", quiet(p50, false))
	r.set(endToEnd, "server_rss_mb", ph.end.hwmMiB)
	r.set(endToEnd, "setup_s", loadgen.Median(ph.setup))
	r.set(endToEnd, "sim_wall_s", sim.wall())
	r.Attempted = ph.sent + uint64(ph.churn.Lines) + uint64(sim.runs)
	r.Failed = ph.failed() + uint64(ph.churn.Failed) + uint64(sim.failed)
	r.Correct = r.Failed == 0
	return r, nil
}

func failsByName(fails []uint64) string {
	var parts []string
	for f, n := range fails {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", loadgen.Fail(f), n))
		}
	}
	if parts == nil {
		return "none"
	}
	return strings.Join(parts, " ")
}

// trace is one traced run: the per-layer metrics. The server is
// measured from outside as in an untraced run, with a span recorded per
// query in every second capacity window; the fixed side probes cover
// the transports the workload does not use; benchmark/layers times the
// modules in-process; and all spans go to outDir/trace.json.
func (e *env) trace(w *workload, seed uint64, seconds float64, outDir string, o options) (*report, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	o.spans = loadgen.NewSpanLog(loadgen.RingSize)
	capDur, rateDur, _ := w.split(seconds)
	ph, err := e.serve(w, seed, capDur, rateDur, o)
	if err != nil {
		return nil, err
	}
	sd, err := e.sideProbes(seed, !w.churn)
	if err != nil {
		return nil, fmt.Errorf("side probes: %w", err)
	}
	reportStats := sd.report
	if w.churn {
		reportStats = ph.churn
	}

	// The layers get the workload's own stream, as bare messages; the
	// JSON share of a DoH mix has no message and is sent as A+ECS.
	probe := *w.variant(o)
	probe.framing = loadgen.FrameUDP
	probe.mix[loadgen.KindAECS] += probe.mix[loadgen.KindJSON]
	probe.mix[loadgen.KindJSON] = 0
	ring, err := loadgen.NewRing(probe.stream(seed))
	if err != nil {
		return nil, err
	}
	layerMetrics, layerSpans, err := layers.Run(layers.Config{
		Ring: ring, Zone: zone, Capacities: capacities, Domains: nDomains,
		Policy: policy, TempDir: outDir, SimReps: 3,
	})
	if err != nil {
		return nil, err
	}

	r := &report{Metrics: map[string]value{}}
	set := func(name string, v float64) { r.set(perLayer, name, v) }
	var plain, spanned []float64
	for _, s := range ph.slices {
		if s.traced {
			spanned = append(spanned, s.qps)
		} else {
			plain = append(plain, s.qps)
		}
	}
	untraced := loadgen.Median(plain)
	util := ph.median(func(s *slice) float64 { return s.cpuUtil })
	cpuUser := ph.capUser * 1e6 / ph.capAnswers
	set("dnsserver.cpu_user_us_per_query", cpuUser)
	set("dnsserver.cpu_sys_us_per_query", ph.capSys*1e6/ph.capAnswers)
	set("dnsserver.cpu_util", util)
	set("dnsserver.ctx_switches_per_query", ph.median(func(s *slice) float64 { return s.ctxPerQuery }))
	set("dnsserver.threads", float64(ph.end.threads))
	set("dnsserver.report_lines_per_s", float64(reportStats.Lines)/reportStats.Elapsed.Seconds())
	set("dnsserver.report_rtt_p50_us", float64(loadgen.Percentile(reportStats.RTT, 0.50))/1e3)
	set("dnsserver.report_rtt_p99_us", float64(loadgen.Percentile(reportStats.RTT, 0.99))/1e3)
	set("dnsserver.report_failed", float64(reportStats.Failed))
	set("dnsserver.tcp.conn_setup_us", sd.tcpSetupUs)
	set("dnsserver.doh.wire_p50_us", sd.dohWireUs)
	set("dnsserver.doh.json_p50_us", sd.dohJSONUs)
	set("loadgen.answered_qps", untraced)
	set("loadgen.offered_qps", ph.median(func(s *slice) float64 { return s.offered }))
	set("loadgen.latency_p50_us", ph.median(func(s *slice) float64 { return s.p50 }))
	set("loadgen.latency_p99_us", ph.median(func(s *slice) float64 { return s.p99 }))
	set("loadgen.late_p99_us", ph.lateP99)
	set("loadgen.samples", float64(ph.samples))
	set("loadgen.timeouts", float64(ph.fails[loadgen.FailTimeout]))
	set("loadgen.mismatched", float64(ph.failed()-ph.fails[loadgen.FailTimeout]+ph.stray))
	set("loadgen.failed_share", float64(ph.failed())/float64(ph.sent))
	set("loadgen.rtt_p999_us", ph.median(func(s *slice) float64 { return s.rttP999 }))
	// Below 90% busy the server was waiting for the generator: the
	// throughput then says how fast the generator is, not the server.
	bound := 0.0
	if util < 0.9 {
		bound = 1
	}
	set("loadgen.generator_bound", bound)
	set("loadgen.tracing_overhead_pct", 100*(untraced-loadgen.Median(spanned))/untraced)
	sum := 0.0
	for _, m := range layerMetrics {
		r.Metrics[m.Name] = value{m.Value, m.Unit}
		switch m.Name {
		case "dnswire.unpack_query_ns", "engine.decide_query_ns.reactive", "dnswire.append_pack_ns":
			sum += m.Value
		}
	}
	set("budget.layers_sum_ns", sum)
	set("budget.unattributed_ns", cpuUser*1e3-sum)

	genSpans, recorded := o.spans.Spans()
	if err := writeTrace(filepath.Join(outDir, "trace.json"), w.name, seed, genSpans, layerSpans); err != nil {
		return nil, err
	}
	r.Attempted = ph.sent + sd.sent + uint64(reportStats.Lines)
	r.Failed = ph.failed() + sd.failed + uint64(reportStats.Failed)
	r.Correct = r.Failed == 0
	r.notes = append(r.notes,
		fmt.Sprintf("workload %s seed %d traced: ring sha256 %x", w.name, seed, ph.ringHash),
		fmt.Sprintf("queries: sent %d failed %d by reason %v stray %d", ph.sent, ph.failed(), failsByName(ph.fails[:]), ph.stray),
		fmt.Sprintf("spans: %d per-query spans recorded (last %d kept), %d layer spans, written to %s",
			recorded, len(genSpans), len(layerSpans), filepath.Join(outDir, "trace.json")),
	)
	if bound == 1 {
		r.notes = append(r.notes, fmt.Sprintf("NOTE: server only %.0f%% busy in the capacity windows: answered_qps is a generator limit here, not a server limit", util*100))
	}
	return r, nil
}

// writeTrace writes the spans kept in memory during the run.
func writeTrace(path, workload string, seed uint64, generator, layer []loadgen.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{
		"workload": workload, "seed": seed,
		"clock":     "ns since the start of the phase (generator) or of the probes (layers)",
		"generator": generator, "layers": layer,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// repeat runs K sets of every workload and compares the sets.
func (e *env) repeat(out io.Writer, k int, seed uint64, seconds float64, o options) error {
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	for set := 0; set < k; set++ {
		for i := range workloads {
			w := &workloads[i]
			r, err := e.measure(w, seed, seconds, o)
			if err != nil {
				return fmt.Errorf("set %d, %s: %w", set, w.name, err)
			}
			if !r.Correct {
				return fmt.Errorf("set %d, %s: %d of %d operations failed", set, w.name, r.Failed, r.Attempted)
			}
			for _, m := range endToEnd {
				values[key{w.name, m.name}] = append(values[key{w.name, m.name}], r.Metrics[m.name].Value)
			}
			fmt.Fprintf(out, "set %d %s done\n", set, w.name)
		}
	}
	fmt.Fprintf(out, "%-10s %-26s %8s %8s  %s\n", "workload", "metric", "spread", "bound", "per-set values")
	exceeded := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			vs := values[key{w.name, m.name}]
			spread := (slices.Max(vs) - slices.Min(vs)) / loadgen.Median(slices.Clone(vs))
			mark := ""
			if spread > m.bound {
				mark = "  EXCEEDS BOUND"
				exceeded++
			}
			fmt.Fprintf(out, "%-10s %-26s %7.2f%% %7.2f%%  %.4f%s\n", w.name, m.name, 100*spread, 100*m.bound, vs, mark)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d end-to-end metrics differ between sets by more than their bound", exceeded)
	}
	return nil
}

// printSweep prints the saturation curve of one workload variant.
func (e *env) printSweep(out io.Writer, w *workload, seed uint64, o options) error {
	fractions := []float64{0.1, 0.25, 0.5, 0.7, 0.8, 0.9, 1.0, 1.1}
	capacity, steps, err := e.sweep(w, seed, fractions, 3*time.Second, o)
	if err != nil {
		return err
	}
	v := w.variant(o)
	fmt.Fprintf(out, "sweep %s window %d ecs %v server-flags %q: closed-loop capacity %.0f qps\n",
		w.name, v.window, !o.noECS, strings.Join(o.serverFlags, " "), capacity)
	fmt.Fprintf(out, "%8s %12s %12s %10s %10s %8s\n", "load", "offered/s", "answered/s", "p50 us", "p99 us", "failed")
	for i, s := range steps {
		fmt.Fprintf(out, "%7.0f%% %12.0f %12.0f %10.1f %10.1f %8d\n", 100*fractions[i], s.offered, s.answered, s.p50, s.p99, s.failed)
	}
	return nil
}
