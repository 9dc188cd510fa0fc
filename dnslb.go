// Package dnslb is a reproduction of "Dynamic Load Balancing in
// Geographically Distributed Heterogeneous Web Servers" (Colajanni,
// Cardellini, Yu — ICDCS 1998): the adaptive-TTL family of DNS
// scheduling algorithms, the discrete-event simulation study that
// evaluates them, and a working RFC 1035 DNS server that runs the same
// policies on a real network.
//
// The package is a facade over the implementation packages:
//
//   - Scheduling algorithms (RR, RR2, PRR, PRR2, the DAL/MRL baselines,
//     and the adaptive TTL meta-algorithm TTL/i and TTL/S_i for any
//     class count) — build one with NewPolicy.
//   - The simulator — configure with DefaultSimConfig, run with RunSim.
//   - The paper's experiments (Figures 1–7, Table 2) and the extension
//     sweeps — run via the Experiments registry; VerifyReproduction
//     checks every claim executably.
//   - Workload traces — GenerateTrace; replay via SimConfig.Trace.
//   - The real network path — NewDNSServer, whose DNSServerConfig
//     describes the whole server (report socket, liveness, probing,
//     replication, checkpointing) and whose Start, Shutdown and Close
//     own its lifecycle; NewCachingNS, NewBackend,
//     NewRateLimiter, NewMetricsRegistry.
//
// The facade names what the commands' siblings under examples/ and
// benchmark/ and this package's own tests use, and nothing else: a type
// that is only ever received from a constructor here (a Policy, a State,
// an Engine) is used through its methods and needs no name of its own.
//
// Quick start:
//
//	cfg := dnslb.DefaultSimConfig("DRR2-TTL/S_K")
//	res, err := dnslb.RunSim(cfg)
//	if err != nil { ... }
//	fmt.Println(res.ProbMaxUnder(0.9))
package dnslb

import (
	"dnslb/internal/backend"
	"dnslb/internal/core"
	"dnslb/internal/dnsclient"
	"dnslb/internal/dnsserver"
	"dnslb/internal/engine"
	"dnslb/internal/experiments"
	"dnslb/internal/metrics"
	"dnslb/internal/probe"
	"dnslb/internal/sim"
	"dnslb/internal/workload"
)

// PolicyConfig selects and parameterizes a scheduling policy by name
// (see internal/core for full docs).
type PolicyConfig = core.PolicyConfig

// DefaultConstantTTL is the paper's 240-second baseline TTL.
const DefaultConstantTTL = core.DefaultConstantTTL

// Estimator kind tags (SimConfig.Estimator, DNSServerConfig.Estimator
// and the -estimator flags).
const (
	EstimatorReactive   = core.EstimatorReactive
	EstimatorPredictive = core.EstimatorPredictive
)

// Scheduling constructors and helpers.
var (
	// NewPolicy builds a policy from its catalog name (e.g.
	// "DRR2-TTL/S_K"); see PolicyNames.
	NewPolicy = core.NewPolicy
	// PolicyNames lists every scheduling policy in the catalog.
	PolicyNames = core.PolicyNames
	// NewCluster builds a cluster from absolute capacities.
	NewCluster = core.NewCluster
	// ScaledCluster builds a Table 2-style cluster at a heterogeneity
	// level with a fixed total capacity.
	ScaledCluster = core.ScaledCluster
	// HeterogeneityVector returns relative capacities per Table 2.
	HeterogeneityVector = core.HeterogeneityVector
	// NewState creates scheduler state for a cluster and domain count.
	NewState = core.NewState
	// RingProximityConfig builds the synthetic ring-geography
	// ProximityConfig the simulator uses for proximity steering (nil
	// when preference is 0).
	RingProximityConfig = core.RingProximityConfig
)

// ParseECSMode parses the -ecs-mode flag spellings (passthrough, add,
// override; empty = passthrough) into the RFC 7871 client-subnet mode
// of the scheduling engine (internal/engine) the live DNS server runs
// (DNSServerConfig.ECS).
var ParseECSMode = engine.ParseECSMode

// Simulation types.
type (
	// SimConfig configures one simulation run.
	SimConfig = sim.Config
	// SimResult carries a run's metrics.
	SimResult = sim.Result
	// FaultEvent is one scheduled crash or recovery of a simulated
	// server (SimConfig.Faults).
	FaultEvent = sim.FaultEvent
	// PartitionEvent is one total inter-replica link cut of a
	// replicated simulation (SimConfig.Partitions).
	PartitionEvent = sim.PartitionEvent
	// FlashEvent is one simulated flash crowd: extra clients joining a
	// domain through fresh resolver caches (SimConfig.FlashCrowds).
	FlashEvent = sim.FlashEvent
	// DetectionConfig models how the simulated DNS learns about fault
	// events — active probing or missed reports — instead of the
	// instant-knowledge bound (SimConfig.Detection).
	DetectionConfig = sim.DetectionConfig
	// ECSMisalignConfig enables the resolver/client misalignment
	// extension: a fraction of domains resolve through name servers
	// located elsewhere, with or without ECS forwarding the clients'
	// true subnet (SimConfig.ECSMisalign).
	ECSMisalignConfig = sim.ECSMisalignConfig
)

// Crash-detector kinds for DetectionConfig.Kind.
const (
	DetectProbe  = sim.DetectProbe
	DetectReport = sim.DetectReport
)

// Simulation entry points.
var (
	// DefaultSimConfig returns the paper's Table 1 defaults for a
	// policy name.
	DefaultSimConfig = sim.DefaultConfig
	// RunSim executes one simulation run.
	RunSim = sim.Run
	// RunSimReplications executes independent replications.
	RunSimReplications = sim.RunReplications
	// ProbMaxUnderCI aggregates replications into a confidence
	// interval on Prob(MaxUtilization < x).
	ProbMaxUnderCI = sim.ProbMaxUnderCI
	// DefaultWorkload returns the paper's workload parameters.
	DefaultWorkload = workload.Default
	// GenerateTrace synthesizes a workload trace that replays exactly
	// like a live simulation with the same seed.
	GenerateTrace = sim.GenerateTrace
	// Outage builds the crash+recover fault pair for one server.
	Outage = sim.Outage
)

// ExperimentOptions controls an experiment's duration, replications and
// seeds.
type ExperimentOptions = experiments.Options

// Experiment entry points.
var (
	// Experiments maps experiment IDs (fig1..fig7, table2) to runners.
	Experiments = experiments.Registry
	// ExperimentIDs lists the registered experiment IDs.
	ExperimentIDs = experiments.IDs
	// DefaultExperimentOptions reproduces the paper's 5-hour setup.
	DefaultExperimentOptions = experiments.DefaultOptions
	// VerifyReproduction checks every qualitative claim of the paper
	// against fresh simulations and reports PASS/FAIL per claim.
	VerifyReproduction = experiments.Verify
)

// Real-network types.
type (
	// DNSServerConfig configures the authoritative DNS server.
	DNSServerConfig = dnsserver.Config
	// DNSServer is the adaptive-TTL authoritative server.
	DNSServer = dnsserver.Server
	// Resolver is a stub resolver against one upstream.
	Resolver = dnsclient.Resolver
	// CachingNS is a TTL-honouring caching name server.
	CachingNS = dnsclient.CachingNS
	// AnswerA is a resolved address with its TTL.
	AnswerA = dnsclient.AnswerA
	// Backend is a capacity-limited HTTP Web server whose agent
	// reports utilization and per-domain hits to the DNS.
	Backend = backend.Server
	// BackendConfig configures a Backend.
	BackendConfig = backend.Config
	// ReplicationConfig configures a DNSServer's multi-replica soft-state
	// replication (DNSServerConfig.Replication, DESIGN.md §13).
	ReplicationConfig = dnsserver.ReplicationConfig
	// ProbeConfig configures a DNSServer's active health prober
	// (DNSServerConfig.Probe, DESIGN.md §16).
	ProbeConfig = probe.Config
)

// NewMetricsRegistry creates an empty metrics registry (see
// internal/metrics): counters, gauges and histograms, rendered in the
// Prometheus text exposition format. Pass one via
// DNSServerConfig.Metrics to instrument the DNS server; serve its
// Handler() on /metrics.
var NewMetricsRegistry = metrics.NewRegistry

// Real-network entry points.
var (
	// NewDNSServer validates a configuration and assembles the
	// authoritative server it describes (call Start).
	NewDNSServer = dnsserver.New
	// NewCachingNS creates a caching NS over a resolver.
	NewCachingNS = dnsclient.NewCachingNS
	// PrefixHashMapper maps resolver addresses to domains by prefix.
	PrefixHashMapper = dnsserver.PrefixHashMapper
	// StaticMapper maps exact resolver addresses to domains.
	StaticMapper = dnsserver.StaticMapper
	// NewBackend creates a capacity-limited reporting Web server.
	NewBackend = backend.New
	// NewRateLimiter creates a per-source query rate limiter.
	NewRateLimiter = dnsserver.NewRateLimiter
	// LoadCheckpoint reads a checkpoint file written by WriteCheckpoint
	// or under DNSServerConfig.CheckpointPath.
	LoadCheckpoint = dnsserver.LoadCheckpoint
	// ParseProbeSpec parses the -probe flag syntax, e.g.
	// "tcp,interval=2s,fail=3,rise=2" or "http=/healthz,interval=5s".
	ParseProbeSpec = probe.ParseSpec
)
