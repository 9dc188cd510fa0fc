package main

import (
	"time"

	"dnslb/benchmark/loadgen"
)

// The deployment every workload runs against: the paper's default
// cluster (7 heterogeneous servers, 20 connected domains) behind the
// server's default policy.
const (
	zone      = "www.site.example"
	sibling   = "ftp.site.example"
	policy    = "DRR2-TTL/S_K" // the server's -policy default
	nDomains  = 20             // the server's -domains default
	nSubnets  = 16             // client /24s per domain
	zipfTheta = 1.0

	// runSeconds is BENCHMARK.json's run_seconds: the measuring time the
	// driver passes as --seconds, and the default of -seconds.
	runSeconds = 22

	queryTimeout   = time.Second
	setupCycles    = 25
	warmup         = 1500 * time.Millisecond
	rateWindow     = 50 * time.Millisecond // one open-loop window; as many closed-loop windows share the capacity time
	heartbeatEvery = 2 * time.Second
	// The paper's servers report every 8 s; the churn workload plays
	// that loop 80 times faster so that one run sees ~200 weight
	// installs and state-version bumps instead of two.
	churnEvery = 100 * time.Millisecond
	churnHits  = 500.0 // site-wide hits/s the HITS lines add up to (the paper's total capacity)
)

// capacities are the backends' capacities in hits/s, the paper's Table 2
// at 20% heterogeneity; backend i has address 10.0.0.(i+1).
var capacities = []float64{100, 100, 100, 80, 80, 80, 80}

const nServers = 7

func backendAddr(i int) [4]byte { return [4]byte{10, 0, 0, byte(i + 1)} }

// workload is one traffic mix and the split of the run's measuring
// time between the capacity phase, the rate phase and the simulator.
type workload struct {
	name    string
	why     string
	framing loadgen.Framing
	window  int // queries in flight per connection in the closed loop
	// conns is the connections each load goroutine drives; 0 means one.
	// HTTP/1.1 has one request in flight per connection, and with a
	// single connection the server sleeps between requests — or, when the
	// generator's next request happens to beat it to the park, does not:
	// two states a third apart in throughput and CPU per request, chosen
	// by microsecond timing. Four connections keep the server busy in the
	// capacity windows, like the in-flight windows of UDP and TCP do.
	conns int
	mix   loadgen.Mix
	// rate is the open-loop offered load in queries per second: an
	// absolute number frozen here (README.md, "Fixed rates"), so that
	// parent and change are always offered the same load.
	rate  float64
	flags []string // server flags beyond -servers/-capacities/-addr
	http  bool     // the server also gets -http-addr
	churn bool     // play the feedback loop on the report socket during the run
	// capShare and rateShare are the parts of -seconds the two server
	// phases get; the simulator gets the rest (at least one round).
	capShare, rateShare float64
}

var workloads = []workload{
	{
		name:    "udp-zipf",
		why:     "UDP A+ECS, Zipf resolver skew: smallest message, per-packet cost (socket, decode, DecideQuery, encode) decides everything; any fast-path change must show here",
		framing: loadgen.FrameUDP, window: 32, rate: 20000,
		mix:      loadgen.Mix{loadgen.KindAECS: 1},
		capShare: 0.35, rateShare: 0.45,
	},
	{
		name:    "udp-churn",
		why:     "udp-zipf stream while HITS/ROLL/ALARM lines land every 100 ms under -estimator predictive: writes beside reads; a read-path gain bought with version-keyed caching or a coarser lock costs here",
		framing: loadgen.FrameUDP, window: 32, rate: 20000,
		mix:   loadgen.Mix{loadgen.KindAECS: 1},
		flags: []string{"-estimator", "predictive"}, churn: true,
		capShare: 0.35, rateShare: 0.45,
	},
	{
		name:    "tcp-cold",
		why:     "pipelined TCP, 80% A+ECS and 20% TXT/ANY/NXDOMAIN/plain A: TCP framing plus the Message+AppendPack cold path that UDP traffic barely touches",
		framing: loadgen.FrameTCP, window: 16, rate: 10000,
		mix: loadgen.Mix{loadgen.KindAECS: 0.80, loadgen.KindTXT: 0.05,
			loadgen.KindANY: 0.05, loadgen.KindNX: 0.05, loadgen.KindA: 0.05},
		capShare: 0.35, rateShare: 0.45,
	},
	{
		name:    "doh",
		why:     "HTTP/1.1 keep-alive, 80% POST /dns-query wire and 20% GET /resolve JSON: HTTP parsing dominates, so dnswire/engine gains should not move it; only place the JSON re-Unpack shows",
		framing: loadgen.FrameHTTP, window: 1, conns: 4, rate: 5000, http: true,
		mix:      loadgen.Mix{loadgen.KindAECS: 0.80, loadgen.KindJSON: 0.20},
		capShare: 0.35, rateShare: 0.45,
	},
	{
		name:    "sim-paper",
		why:     "mostly the simulator at paper scale (5 simulated hours a run; 6 policies, both estimators, 3 replicas) after a short plain-UDP slice without ECS: the engine's other driver; guards the sim assemblies",
		framing: loadgen.FrameUDP, window: 32, rate: 20000,
		mix:      loadgen.Mix{loadgen.KindA: 1},
		capShare: 0.18, rateShare: 0.27,
	},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metric is one reported number.
type metric struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only
}

// endToEnd are the metrics a user of the system would see; every run
// with -trace 0 reports all of them. The timing bounds are the contract's
// maximum: in its calm and moderately disturbed stretches the reference
// host spreads ten seeds by 2-7 %, but it has stretches of minutes in
// which everything runs a fifth to a half slower, and a set of runs that
// catches one spreads by 10-16 % (README.md, "Steadiness").
var endToEnd = []metric{
	{"answered_qps", "1/s", "higher", 0.25},
	{"server_cpu_us_per_query", "us", "lower", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"server_rss_mb", "MiB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
	{"sim_wall_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers; every run with -trace 1
// reports all of them. They have no bound.
var perLayer = []metric{
	// The server process, measured from outside during the capacity windows.
	{name: "dnsserver.cpu_user_us_per_query", unit: "us", better: "lower"},
	{name: "dnsserver.cpu_sys_us_per_query", unit: "us", better: "lower"},
	{name: "dnsserver.cpu_util", unit: "ratio", better: "higher"},
	{name: "dnsserver.ctx_switches_per_query", unit: "count", better: "lower"},
	{name: "dnsserver.threads", unit: "count", better: "lower"},
	// The report socket: under load on udp-churn, on an idle probe server otherwise.
	{name: "dnsserver.report_lines_per_s", unit: "1/s", better: "higher"},
	{name: "dnsserver.report_rtt_p50_us", unit: "us", better: "lower"},
	{name: "dnsserver.report_rtt_p99_us", unit: "us", better: "lower"},
	{name: "dnsserver.report_failed", unit: "count", better: "lower"},
	// The fixed side probes.
	{name: "dnsserver.tcp.conn_setup_us", unit: "us", better: "lower"},
	{name: "dnsserver.doh.wire_p50_us", unit: "us", better: "lower"},
	{name: "dnsserver.doh.json_p50_us", unit: "us", better: "lower"},
	// The generator.
	{name: "loadgen.answered_qps", unit: "1/s", better: "higher"},
	{name: "loadgen.offered_qps", unit: "1/s", better: "higher"},
	{name: "loadgen.latency_p50_us", unit: "us", better: "lower"},
	{name: "loadgen.latency_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.late_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.samples", unit: "count", better: "higher"},
	{name: "loadgen.timeouts", unit: "count", better: "lower"},
	{name: "loadgen.mismatched", unit: "count", better: "lower"},
	{name: "loadgen.failed_share", unit: "ratio", better: "lower"},
	{name: "loadgen.rtt_p999_us", unit: "us", better: "lower"},
	{name: "loadgen.generator_bound", unit: "count", better: "lower"},
	{name: "loadgen.tracing_overhead_pct", unit: "%", better: "lower"},
	// benchmark/layers, in-process.
	{name: "dnswire.unpack_query_ns", unit: "ns", better: "lower"},
	{name: "dnswire.unpack_query_allocs", unit: "count", better: "lower"},
	{name: "dnswire.append_pack_ns", unit: "ns", better: "lower"},
	{name: "dnswire.append_pack_allocs", unit: "count", better: "lower"},
	{name: "dnswire.append_pack_nxdomain_ns", unit: "ns", better: "lower"},
	{name: "engine.decide_query_ns.reactive", unit: "ns", better: "lower"},
	{name: "engine.decide_query_ns.predictive", unit: "ns", better: "lower"},
	{name: "engine.decide_query_ns.noecs", unit: "ns", better: "lower"},
	{name: "engine.decide_query_allocs", unit: "count", better: "lower"},
	{name: "engine.ledger_extend_ns", unit: "ns", better: "lower"},
	{name: "engine.decide_query_parallel_ns.reactive", unit: "ns", better: "lower"},
	{name: "engine.decide_query_parallel_ns.predictive", unit: "ns", better: "lower"},
	{name: "core.schedule_ns.RR", unit: "ns", better: "lower"},
	{name: "core.schedule_ns.RR2", unit: "ns", better: "lower"},
	{name: "core.schedule_ns.PRR2-TTL.K", unit: "ns", better: "lower"},
	{name: "core.schedule_ns.DRR2-TTL.S_K", unit: "ns", better: "lower"},
	{name: "core.schedule_ns.DAL", unit: "ns", better: "lower"},
	{name: "core.schedule_allocs.DAL", unit: "count", better: "lower"},
	{name: "core.estimator_roll_us.reactive", unit: "us", better: "lower"},
	{name: "core.estimator_roll_us.predictive", unit: "us", better: "lower"},
	{name: "core.set_weights_us", unit: "us", better: "lower"},
	{name: "core.set_alarm_us", unit: "us", better: "lower"},
	{name: "replication.flush_us", unit: "us", better: "lower"},
	{name: "replication.merge_us", unit: "us", better: "lower"},
	{name: "dnsserver.checkpoint_write_us", unit: "us", better: "lower"},
	{name: "sim.events_per_s", unit: "1/s", better: "higher"},
	{name: "sim.events_total", unit: "count", better: "lower"},
	{name: "sim.allocs_per_event", unit: "count", better: "lower"},
	{name: "sim.single.wall_s", unit: "s", better: "lower"},
	{name: "sim.estimated.wall_s", unit: "s", better: "lower"},
	{name: "sim.replicated.wall_s", unit: "s", better: "lower"},
	{name: "sim.replicated.events_per_s", unit: "1/s", better: "higher"},
	{name: "simcore.step_ns", unit: "ns", better: "lower"},
	// The budget that sums: decode + decide + encode against the user
	// CPU the server actually spent per query, remainder stated.
	{name: "budget.layers_sum_ns", unit: "ns", better: "lower"},
	{name: "budget.unattributed_ns", unit: "ns", better: "lower"},
}
