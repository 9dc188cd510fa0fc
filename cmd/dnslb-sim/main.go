// Command dnslb-sim runs one simulation of the distributed Web site
// under a chosen DNS scheduling policy and prints its metrics,
// optionally with the full cumulative-frequency curve of the maximum
// server utilization.
//
// Examples:
//
//	dnslb-sim -policy DRR2-TTL/S_K -het 35
//	dnslb-sim -policy RR -curve
//	dnslb-sim -policy PRR2-TTL/K -minttl 120 -reps 3
//	dnslb-sim -policy DRR2-TTL/S_K -fail 0@900+600
//	dnslb-sim -policy DRR2-TTL/S_K -estimator reactive -reportloss 0.1
//	dnslb-sim -policy DRR2-TTL/S_K -estimator predictive -flash 0@1800+600:300x40
//	dnslb-sim -policy DRR2-TTL/S_K -trace day.trace -replicas 2 -fail 0@900+600
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dnslb"
	"dnslb/internal/core"
	"dnslb/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dnslb-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dnslb-sim", flag.ContinueOnError)
	var (
		policy    = fs.String("policy", "DRR2-TTL/S_K", "scheduling policy (see -list)")
		policies  = fs.String("policies", "", "comma-separated policies to compare on identical workloads")
		list      = fs.Bool("list", false, "list policies and exit")
		het       = fs.Int("het", 20, "heterogeneity level in percent")
		servers   = fs.Int("servers", 7, "number of Web servers")
		domains   = fs.Int("domains", 20, "number of connected domains")
		clients   = fs.Int("clients", 500, "total clients")
		capacity  = fs.Float64("capacity", 500, "total site capacity in hits/s")
		duration  = fs.Float64("duration", 5*3600, "measured virtual seconds")
		warmup    = fs.Float64("warmup", 600, "warm-up virtual seconds (discarded)")
		seed      = fs.Uint64("seed", 1, "random seed")
		reps      = fs.Int("reps", 1, "independent replications")
		minTTL    = fs.Float64("minttl", 0, "minimum TTL imposed by non-cooperative NSes (s)")
		errPct    = fs.Float64("error", 0, "hidden-load estimation error in percent")
		uniform   = fs.Bool("uniform", false, "uniform client distribution (ideal case)")
		estimator = fs.String("estimator", "", "dynamic hidden-load estimator kind instead of oracle weights: reactive or predictive")
		flash     = fs.String("flash", "", "comma-separated flash crowds, each domain@start+duration:clientsxresolvers (e.g. 0@1800+600:300x40)")
		curve     = fs.Bool("curve", false, "print the cumulative-frequency curve")
		jsonOut   = fs.Bool("json", false, "emit a JSON summary instead of text")
		fail      = fs.String("fail", "", "comma-separated server outages, each server@start+duration (e.g. 0@900+600)")
		detect    = fs.String("detect", "", "crash detector model for -fail events: probe:interval,failN,riseM or report:interval,k (e.g. probe:2,3,2; empty = instant knowledge)")
		lossProb  = fs.Float64("reportloss", 0, "probability each estimator report is lost in transit [0,1]")
		replicas  = fs.Int("replicas", 0, "run R replicated authoritative DNS servers gossiping soft state (0/1 = single DNS)")
		replIv    = fs.Float64("repl-interval", 8, "inter-replica gossip interval in virtual seconds")
		replLag   = fs.Float64("repl-lag", 0, "inter-replica delta delivery lag in virtual seconds")
		partition = fs.String("partition", "", "comma-separated total link cuts, each start+duration (e.g. 900+30)")
		geoPref   = fs.Float64("geo-preference", 0, "probability of answering with the nearest server instead of the policy's choice (0 = disabled)")
		misalign  = fs.Float64("ecs-misalign", -1, "fraction of domains resolving through a name server located elsewhere (enables the RFC 7871 misalignment extension; -1 = off)")
		useECS    = fs.Bool("ecs", false, "misaligned resolvers forward the clients' true subnet as EDNS Client Subnet (requires -ecs-misalign)")
		ecsShift  = fs.Int("ecs-shift", 0, "how many domains away a misaligned resolver sits (0 = antipode)")
		tracePath = fs.String("trace", "", "replay a recorded trace file as the arrivals; it sets the domains and the horizon")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Fprintln(out, strings.Join(dnslb.PolicyNames(), "\n"))
		return nil
	}

	if *tracePath != "" {
		// The trace sets the workload and the horizon; -policies would run
		// the generated workload instead.
		var clash []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "domains", "clients", "uniform", "error", "duration", "policies":
				clash = append(clash, "-"+f.Name)
			}
		})
		if len(clash) > 0 {
			return fmt.Errorf("%s cannot be combined with -trace", strings.Join(clash, ", "))
		}
	}
	if *policies != "" {
		return comparePolicies(strings.Split(*policies, ","), *het, *duration, *warmup, *seed, out)
	}

	cfg := dnslb.DefaultSimConfig(*policy)
	cfg.HeterogeneityPct = *het
	cfg.Servers = *servers
	cfg.Workload.Domains = *domains
	cfg.Workload.Clients = *clients
	cfg.Workload.Uniform = *uniform
	cfg.Workload.PerturbationPct = *errPct
	cfg.TotalCapacity = *capacity
	cfg.Duration = *duration
	cfg.Warmup = *warmup
	cfg.Seed = *seed
	cfg.MinNSTTL = *minTTL
	if *tracePath != "" {
		if err := useTrace(&cfg, *tracePath); err != nil {
			return err
		}
	}
	// The kind is core's to judge, here rather than deep inside the run so
	// that the error names the flag (an empty kind means oracle weights).
	if _, err := core.NewLoadEstimator(*estimator, 1, core.DefaultEstimatorAlpha); err != nil {
		return fmt.Errorf("-estimator: %w", err)
	}
	cfg.OracleWeights = *estimator == ""
	cfg.Estimator = *estimator
	cfg.ReportLossProb = *lossProb
	flashes, err := parseFlashCrowds(*flash)
	if err != nil {
		return err
	}
	cfg.FlashCrowds = flashes
	faults, err := parseFaults(*fail)
	if err != nil {
		return err
	}
	cfg.Faults = faults
	detection, err := parseDetection(*detect)
	if err != nil {
		return err
	}
	cfg.Detection = detection
	cfg.Replicas = *replicas
	cfg.ReplicationInterval = *replIv
	cfg.ReplicaLag = *replLag
	partitions, err := parsePartitions(*partition)
	if err != nil {
		return err
	}
	cfg.Partitions = partitions
	cfg.GeoPreference = *geoPref
	if !(*misalign < 0) { // NaN too, for the run to refuse
		cfg.ECSMisalign = &dnslb.ECSMisalignConfig{
			Fraction: *misalign,
			Shift:    *ecsShift,
			UseECS:   *useECS,
		}
	} else if *useECS || *ecsShift != 0 {
		return fmt.Errorf("-ecs and -ecs-shift require -ecs-misalign")
	}

	results, err := dnslb.RunSimReplications(cfg, *reps)
	if err != nil {
		return err
	}
	if *jsonOut {
		return writeJSON(out, *policy, cfg, results)
	}

	fmt.Fprintf(out, "policy              %s\n", *policy)
	fmt.Fprintf(out, "servers             %d (heterogeneity %d%%, total %.0f hits/s)\n",
		*servers, *het, *capacity)
	if *tracePath != "" {
		fmt.Fprintf(out, "trace               %s (%d records, %d domains)\n", *tracePath, len(cfg.Trace), cfg.Workload.Domains)
	} else {
		fmt.Fprintf(out, "domains / clients   %d / %d\n", *domains, *clients)
	}
	fmt.Fprintf(out, "virtual time        %.0fs warm-up + %.0fs measured, %d replication(s)\n",
		*warmup, cfg.Duration, *reps)

	for _, level := range []float64{0.8, 0.9, 0.98} {
		iv := dnslb.ProbMaxUnderCI(results, level, 0.95)
		if *reps > 1 {
			fmt.Fprintf(out, "P(MaxUtil < %.2f)    %.4f ± %.4f\n", level, iv.Mean, iv.HalfWide)
		} else {
			fmt.Fprintf(out, "P(MaxUtil < %.2f)    %.4f\n", level, iv.Mean)
		}
	}

	r := results[0]
	fmt.Fprintf(out, "address requests    %d (%.4f/s, %.2f%% of page requests)\n",
		r.AddressRequests, r.AddressRate(), 100*r.ControlledFraction())
	fmt.Fprintf(out, "NS cache hits       %d\n", r.CacheHits)
	if r.ClampedTTLs > 0 {
		fmt.Fprintf(out, "clamped TTLs        %d (min NS TTL %.0fs)\n", r.ClampedTTLs, *minTTL)
	}
	fmt.Fprintf(out, "hits served         %d in %d pages\n", r.TotalHits, r.TotalPages)
	fmt.Fprintf(out, "alarm signals       %d\n", r.AlarmSignals)
	if len(cfg.Faults) > 0 || r.LostReports > 0 {
		fmt.Fprintf(out, "dead-server hits    %d (pages lost: %d)\n", r.DeadServerHits, r.LostPages)
		fmt.Fprintf(out, "failed resolves     %d\n", r.FailedResolves)
		if r.MeanTimeToDrain > 0 {
			fmt.Fprintf(out, "time to drain       %.1fs mean after recovery\n", r.MeanTimeToDrain)
		}
		if r.LostReports > 0 {
			fmt.Fprintf(out, "lost reports        %d\n", r.LostReports)
		}
		if cfg.Detection != nil {
			fmt.Fprintf(out, "detection           %s: %d crash(es) detected, mean delay %.1fs down / %.1fs up\n",
				cfg.Detection.Kind, r.DetectedCrashes, r.MeanDetectionDelay, r.MeanReviveDelay)
		}
	}
	if cfg.Replicas > 1 {
		fmt.Fprintf(out, "replica decisions  ")
		for _, n := range r.ReplDecisions {
			fmt.Fprintf(out, " %d", n)
		}
		fmt.Fprintln(out)
		fmt.Fprintf(out, "replica gossip      %d deltas applied, %d dropped, %d full syncs\n",
			r.ReplDeltasApplied, r.ReplDeltasDropped, r.ReplFullSyncs)
		fmt.Fprintf(out, "replica divergence  weights %.4f, ledger %.1fs at horizon\n",
			r.ReplMaxWeightDiff, r.ReplLedgerDivergenceSec)
	}
	if cfg.ECSMisalign != nil {
		fmt.Fprintf(out, "ECS misalignment    fraction %.2f shift %d, ecs=%v\n",
			cfg.ECSMisalign.Fraction, cfg.ECSMisalign.Shift, cfg.ECSMisalign.UseECS)
		fmt.Fprintf(out, "  queries           %d (%d with ECS)\n", r.ECSQueries, r.ECSCarried)
		fmt.Fprintf(out, "  misrouted         %d (%.2f%% classified to the wrong domain)\n",
			r.ECSMisrouted, 100*float64(r.ECSMisrouted)/float64(max(r.ECSQueries, 1)))
	}
	if cfg.GeoPreference > 0 {
		fmt.Fprintf(out, "client latency      %.1f ms traffic-weighted mean\n", r.MeanLatencyMS)
	}
	if !cfg.OracleWeights {
		fmt.Fprintf(out, "estimator           %s", cfg.Estimator)
		if r.EstimatorAlarmTime > 0 {
			fmt.Fprintf(out, ", demand alarm at %.0fs", r.EstimatorAlarmTime)
		}
		if r.ForecastAbsError > 0 {
			fmt.Fprintf(out, ", forecast abs err %.2f hits/s", r.ForecastAbsError)
		}
		if r.EstimatorRejected > 0 {
			fmt.Fprintf(out, ", rejected reports %d", r.EstimatorRejected)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "page response time  mean %.3fs, max %.1fs\n", r.MeanResponseTime, r.MaxResponseTime)
	fmt.Fprintf(out, "TTLs handed out     min %.0fs mean %.0fs max %.0fs\n",
		r.Sched.MinTTL, r.Sched.MeanTTL, r.Sched.MaxTTL)
	fmt.Fprint(out, "mean server util   ")
	for _, u := range r.MeanServerUtil {
		fmt.Fprintf(out, " %.3f", u)
	}
	fmt.Fprintln(out)

	if *curve {
		fmt.Fprintln(out, "\nMaxUtil  CumulativeFrequency")
		for x := 0.5; x <= 1.0001; x += 0.025 {
			fmt.Fprintf(out, "%.3f    %.4f\n", x, r.ProbMaxUnder(x))
		}
	}
	return nil
}

// useTrace makes cfg replay the trace at path: the trace's domain count
// replaces the workload's, and its last arrival ends the run.
func useTrace(cfg *dnslb.SimConfig, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	records, err := trace.Read(f)
	if err != nil {
		return fmt.Errorf("-trace: %w", err)
	}
	horizon := records[len(records)-1].Time
	if horizon <= cfg.Warmup {
		return fmt.Errorf("-trace ends at %.1fs, inside the %.0fs warm-up", horizon, cfg.Warmup)
	}
	cfg.Trace = records
	cfg.Workload.Domains = trace.Summarize(records).Domains
	cfg.Duration = horizon - cfg.Warmup
	return nil
}

// parseDetection parses the -detect syntax: probe:interval,failN,riseM
// or report:interval,k. Empty means instant knowledge (no model).
func parseDetection(spec string) (*dnslb.DetectionConfig, error) {
	if spec == "" {
		return nil, nil
	}
	kind, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("bad -detect %q (want probe:interval,failN,riseM or report:interval,k)", spec)
	}
	d := &dnslb.DetectionConfig{Kind: kind}
	switch kind {
	case dnslb.DetectProbe:
		if _, err := fmt.Sscanf(rest, "%f,%d,%d", &d.Interval, &d.FailN, &d.RiseM); err != nil {
			return nil, fmt.Errorf("bad -detect %q (want probe:interval,failN,riseM): %v", spec, err)
		}
	case dnslb.DetectReport:
		if _, err := fmt.Sscanf(rest, "%f,%d", &d.Interval, &d.K); err != nil {
			return nil, fmt.Errorf("bad -detect %q (want report:interval,k): %v", spec, err)
		}
	default:
		return nil, fmt.Errorf("bad -detect kind %q (want %s or %s)", kind, dnslb.DetectProbe, dnslb.DetectReport)
	}
	return d, nil
}

// parseFaults parses the -fail syntax: comma-separated outages of the
// form server@start+duration, in virtual seconds from run start.
func parseFaults(spec string) ([]dnslb.FaultEvent, error) {
	if spec == "" {
		return nil, nil
	}
	var faults []dnslb.FaultEvent
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		var server int
		var start, duration float64
		if _, err := fmt.Sscanf(part, "%d@%f+%f", &server, &start, &duration); err != nil {
			return nil, fmt.Errorf("bad -fail entry %q (want server@start+duration): %v", part, err)
		}
		if duration <= 0 {
			return nil, fmt.Errorf("bad -fail entry %q: duration must be positive", part)
		}
		faults = append(faults, dnslb.Outage(server, start, duration)...)
	}
	return faults, nil
}

// parsePartitions parses the -partition syntax: comma-separated total
// link cuts of the form start+duration, in virtual seconds.
func parsePartitions(spec string) ([]dnslb.PartitionEvent, error) {
	if spec == "" {
		return nil, nil
	}
	var parts []dnslb.PartitionEvent
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		var start, duration float64
		if _, err := fmt.Sscanf(part, "%f+%f", &start, &duration); err != nil {
			return nil, fmt.Errorf("bad -partition entry %q (want start+duration): %v", part, err)
		}
		if duration <= 0 {
			return nil, fmt.Errorf("bad -partition entry %q: duration must be positive", part)
		}
		parts = append(parts, dnslb.PartitionEvent{Start: start, End: start + duration})
	}
	return parts, nil
}

// parseFlashCrowds parses the -flash syntax: comma-separated events of
// the form domain@start+duration:clientsxresolvers, in virtual seconds.
func parseFlashCrowds(spec string) ([]dnslb.FlashEvent, error) {
	if spec == "" {
		return nil, nil
	}
	var events []dnslb.FlashEvent
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		var domain, clients, resolvers int
		var start, duration float64
		if _, err := fmt.Sscanf(part, "%d@%f+%f:%dx%d", &domain, &start, &duration, &clients, &resolvers); err != nil {
			return nil, fmt.Errorf("bad -flash entry %q (want domain@start+duration:clientsxresolvers): %v", part, err)
		}
		events = append(events, dnslb.FlashEvent{
			Time: start, Domain: domain, Clients: clients,
			Resolvers: resolvers, Duration: duration,
		})
	}
	return events, nil
}

// comparePolicies runs each policy at the same seed, so every run
// sees identical arrivals (the simulator's named random streams are
// common random numbers) and the differences are purely the scheduling
// discipline — the paper's paired-comparison setup.
func comparePolicies(policies []string, het int, duration, warmup float64, seed uint64, out io.Writer) error {
	fmt.Fprintf(out, "%-16s %-12s %-12s %-12s %-10s %-10s\n",
		"policy", "P(<0.8)", "P(<0.9)", "P(<0.98)", "respTime", "meanTTL")
	for _, name := range policies {
		name = strings.TrimSpace(name)
		cfg := dnslb.DefaultSimConfig(name)
		cfg.HeterogeneityPct = het
		cfg.Duration = duration
		cfg.Warmup = warmup
		cfg.Seed = seed
		// The Ideal envelope needs the uniform workload.
		cfg.Workload.Uniform = name == "Ideal"
		res, err := dnslb.RunSim(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(out, "%-16s %-12.4f %-12.4f %-12.4f %-10.3f %-10.0f\n",
			name, res.ProbMaxUnder(0.8), res.ProbMaxUnder(0.9), res.ProbMaxUnder(0.98),
			res.MeanResponseTime, res.Sched.MeanTTL)
	}
	fmt.Fprintln(out, "\nall policies saw identical arrivals (same seed); Ideal ran on the uniform workload")
	return nil
}

// jsonSummary is the machine-readable result shape emitted by -json.
type jsonSummary struct {
	Policy           string    `json:"policy"`
	HeterogeneityPct int       `json:"heterogeneityPct"`
	Servers          int       `json:"servers"`
	Domains          int       `json:"domains"`
	DurationSeconds  float64   `json:"durationSeconds"`
	Replications     int       `json:"replications"`
	ProbMaxUnder80   float64   `json:"probMaxUnder80"`
	ProbMaxUnder90   float64   `json:"probMaxUnder90"`
	ProbMaxUnder98   float64   `json:"probMaxUnder98"`
	AddressRequests  uint64    `json:"addressRequests"`
	CacheHits        uint64    `json:"cacheHits"`
	TotalHits        uint64    `json:"totalHits"`
	MeanResponseSec  float64   `json:"meanResponseSeconds"`
	MeanServerUtil   []float64 `json:"meanServerUtil"`
	MeanTTLSeconds   float64   `json:"meanTTLSeconds"`
	DeadServerHits   uint64    `json:"deadServerHits,omitempty"`
	LostPages        uint64    `json:"lostPages,omitempty"`
	FailedResolves   uint64    `json:"failedResolves,omitempty"`
	MeanDrainSeconds float64   `json:"meanDrainSeconds,omitempty"`
	LostReports      uint64    `json:"lostReports,omitempty"`

	DetectedCrashes       uint64  `json:"detectedCrashes,omitempty"`
	MeanDetectionDelaySec float64 `json:"meanDetectionDelaySeconds,omitempty"`
	MeanReviveDelaySec    float64 `json:"meanReviveDelaySeconds,omitempty"`

	ReplDecisions           []uint64 `json:"replicaDecisions,omitempty"`
	ReplDeltasApplied       uint64   `json:"replicaDeltasApplied,omitempty"`
	ReplDeltasDropped       uint64   `json:"replicaDeltasDropped,omitempty"`
	ReplFullSyncs           uint64   `json:"replicaFullSyncs,omitempty"`
	ReplMaxWeightDiff       float64  `json:"replicaMaxWeightDiff,omitempty"`
	ReplLedgerDivergenceSec float64  `json:"replicaLedgerDivergenceSeconds,omitempty"`

	ECSQueries   uint64 `json:"ecsQueries,omitempty"`
	ECSCarried   uint64 `json:"ecsCarried,omitempty"`
	ECSMisrouted uint64 `json:"ecsMisrouted,omitempty"`

	EstimatorAlarmTime float64 `json:"estimatorAlarmTimeSeconds,omitempty"`
	ForecastAbsError   float64 `json:"forecastAbsError,omitempty"`
	EstimatorRejected  uint64  `json:"estimatorRejected,omitempty"`
}

func writeJSON(out io.Writer, policy string, cfg dnslb.SimConfig, results []*dnslb.SimResult) error {
	summary := jsonSummary{
		Policy:           policy,
		HeterogeneityPct: cfg.HeterogeneityPct,
		Servers:          cfg.Servers,
		Domains:          cfg.Workload.Domains,
		DurationSeconds:  cfg.Duration,
		Replications:     len(results),
	}
	for _, level := range []float64{0.8, 0.9, 0.98} {
		iv := dnslb.ProbMaxUnderCI(results, level, 0.95)
		switch level {
		case 0.8:
			summary.ProbMaxUnder80 = iv.Mean
		case 0.9:
			summary.ProbMaxUnder90 = iv.Mean
		default:
			summary.ProbMaxUnder98 = iv.Mean
		}
	}
	r := results[0]
	summary.AddressRequests = r.AddressRequests
	summary.CacheHits = r.CacheHits
	summary.TotalHits = r.TotalHits
	summary.MeanResponseSec = r.MeanResponseTime
	summary.MeanServerUtil = r.MeanServerUtil
	summary.MeanTTLSeconds = r.Sched.MeanTTL
	summary.DeadServerHits = r.DeadServerHits
	summary.LostPages = r.LostPages
	summary.FailedResolves = r.FailedResolves
	summary.MeanDrainSeconds = r.MeanTimeToDrain
	summary.LostReports = r.LostReports
	summary.DetectedCrashes = r.DetectedCrashes
	summary.MeanDetectionDelaySec = r.MeanDetectionDelay
	summary.MeanReviveDelaySec = r.MeanReviveDelay
	summary.ReplDecisions = r.ReplDecisions
	summary.ReplDeltasApplied = r.ReplDeltasApplied
	summary.ReplDeltasDropped = r.ReplDeltasDropped
	summary.ReplFullSyncs = r.ReplFullSyncs
	summary.ReplMaxWeightDiff = r.ReplMaxWeightDiff
	summary.ReplLedgerDivergenceSec = r.ReplLedgerDivergenceSec
	summary.ECSQueries = r.ECSQueries
	summary.ECSCarried = r.ECSCarried
	summary.ECSMisrouted = r.ECSMisrouted
	summary.EstimatorAlarmTime = r.EstimatorAlarmTime
	summary.ForecastAbsError = r.ForecastAbsError
	summary.EstimatorRejected = r.EstimatorRejected
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(summary)
}
