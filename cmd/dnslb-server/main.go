// Command dnslb-server runs the adaptive-TTL DNS load balancer as a
// real authoritative name server: A queries for the configured zone
// are answered with a Web server picked by the scheduling policy and a
// TTL adapted to the querying domain and the server's capacity.
//
// Web servers feed load back over the plain-text report socket:
//
//	printf 'ALARM 0 1\n' | nc <host> <report-port>
//	printf 'HITS 3 1200\nROLL 60\n' | nc <host> <report-port>
//
// Observability: -metrics-addr serves Prometheus text-format metrics
// on /metrics (DESIGN.md §10 lists the series); SIGUSR1 dumps the same
// snapshot to stderr; -log-level/-log-format control the structured
// logs; -pprof serves the runtime's profiles under /debug/pprof/, on the
// server's own HTTP/1.1 framer like /metrics (no net/http is linked).
//
// Operations: -config reads the same settings from a flag-per-line
// file, and SIGHUP re-reads it to apply server-set changes with zero
// downtime — new addresses join, removed addresses drain until their
// outstanding TTLs expire, changed capacities apply in place.
// -checkpoint persists the learned soft state (domain weights,
// estimator windows, alarm/liveness standing) across restarts; on
// SIGINT/SIGTERM the server drains in-flight queries within
// -shutdown-timeout and flushes a final checkpoint. Backends may also
// self-register and retire through the report socket's JOIN and DRAIN
// verbs (see internal/backend).
//
// Example:
//
//	dnslb-server -zone www.site.example -addr 127.0.0.1:5353 \
//	  -servers 10.0.0.1,10.0.0.2,10.0.0.3 -capacities 100,80,50 \
//	  -policy DRR2-TTL/S_K -domains 20 -metrics-addr 127.0.0.1:9153
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dnslb/internal/core"
	"dnslb/internal/dnsserver"
	"dnslb/internal/engine"
	"dnslb/internal/logging"
	"dnslb/internal/metrics"
	"dnslb/internal/probe"
	"dnslb/internal/sock"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(os.Args[1:], ctx.Done(), nil); err != nil {
		fmt.Fprintln(os.Stderr, "dnslb-server:", err)
		os.Exit(1)
	}
}

// boundAddrs reports where the listeners actually landed (useful with
// :0 ports); MetricsAddr is empty when -metrics-addr is unset.
type boundAddrs struct {
	DNS     string
	Report  string
	Metrics string
}

// settings is what a command line, with the -config file under it, asks
// for: the server's configuration, and what only this command acts on.
type settings struct {
	flags      *flag.FlagSet // as parsed, for the reload's "needs a restart"
	server     dnsserver.Config
	capacities []float64
	log        *logging.Options

	configPath      string
	shutdownTimeout time.Duration
}

// configure maps a command line to settings. It is the one place that
// does, for start-up and for SIGHUP alike, so a reload judges a file
// exactly as a restart would. What it checks itself is flag syntax —
// lists, specs and flags that only make sense in pairs; what makes a
// configuration valid is dnsserver.New's to say (see newServer).
func configure(args []string) (*settings, error) {
	fs := flag.NewFlagSet("dnslb-server", flag.ContinueOnError)
	var (
		zone        = fs.String("zone", "www.site.example", "zone name answered authoritatively")
		addr        = fs.String("addr", "127.0.0.1:5353", "DNS listen address (UDP and TCP)")
		reportAddr  = fs.String("report", "", "load-report listen address (empty = port after DNS port)")
		policy      = fs.String("policy", "DRR2-TTL/S_K", "scheduling policy")
		servers     = fs.String("servers", "", "comma-separated Web server IPv4 addresses (required)")
		capacities  = fs.String("capacities", "", "comma-separated capacities in hits/s (default: equal)")
		domains     = fs.Int("domains", 20, "connected domains for source classification")
		estKind     = fs.String("estimator", core.EstimatorReactive, "hidden-load estimator kind: reactive or predictive")
		qps         = fs.Float64("qps", 0, "per-source query rate limit (0 = unlimited)")
		burst       = fs.Float64("burst", 10, "per-source burst allowance when -qps is set")
		livenessK   = fs.Int("liveness-k", 3, "missed report intervals before a backend is marked down (0 = disable liveness)")
		livenessIv  = fs.Duration("liveness-interval", 8*time.Second, "expected backend report interval")
		probeSpec   = fs.String("probe", "", "active health probe spec: tcp[,interval=2s][,timeout=500ms][,fail=3][,rise=2][,jitter=0.2] or http=/path,... (empty = disabled)")
		probeAddrs  = fs.String("probe-targets", "", "comma-separated probe endpoints, one per -servers entry in order; empty entries skip a slot (required with -probe)")
		maxTCP      = fs.Int("max-tcp-conns", 0, "concurrent connection cap of each stream listener (TCP, the report socket, DoH under -http-addr, and the -metrics-addr and -pprof ports); accepts pause at the cap (0 = default 512, negative = unlimited)")
		httpAddr    = fs.String("http-addr", "", "DNS-over-HTTP listen address: RFC 8484 wire on /dns-query, JSON on /resolve (empty = disabled)")
		ecsMode     = fs.String("ecs-mode", "", "EDNS-Client-Subnet handling: passthrough (default), add, or override")
		pprofAddr   = fs.String("pprof", "", "serve the runtime's profiles under /debug/pprof/ on this address (empty = disabled)")
		metricsAddr = fs.String("metrics-addr", "", "serve Prometheus /metrics on this address (empty = disabled)")
		configPath  = fs.String("config", "", "flag-per-line configuration file; SIGHUP re-reads it and applies server-set changes")
		ckptPath    = fs.String("checkpoint", "", "state checkpoint file: restored on startup, saved periodically and on shutdown (empty = disabled)")
		ckptIv      = fs.Duration("checkpoint-interval", time.Minute, "how often to save the checkpoint")
		ckptMaxAge  = fs.Duration("checkpoint-max-age", 24*time.Hour, "reject checkpoints older than this on restore (0 = no age limit)")
		shutdownTO  = fs.Duration("shutdown-timeout", 5*time.Second, "deadline for draining in-flight queries at shutdown")
		peers       = fs.String("peers", "", "comma-separated report-socket addresses of peer DNS replicas (empty = single replica)")
		replicaID   = fs.String("replica-id", "", "unique name of this replica in the set (required with -peers)")
		replIv      = fs.Duration("replication-interval", time.Second, "soft-state gossip cadence between replicas")
		logOpts     = logging.AddFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *configPath != "" {
		if err := applyConfigFile(fs, *configPath); err != nil {
			return nil, err
		}
	}
	if *servers == "" {
		return nil, fmt.Errorf("-servers is required")
	}
	// The server looks no name up: every address is an IP literal.
	for _, a := range [...]struct{ flag, list string }{
		{"-addr", *addr}, {"-report", *reportAddr}, {"-http-addr", *httpAddr},
		{"-metrics-addr", *metricsAddr}, {"-pprof", *pprofAddr}, {"-peers", *peers},
		{"-probe-targets", strings.ReplaceAll(*probeAddrs, " ", "")},
	} {
		for _, addr := range strings.Split(a.list, ",") {
			if _, err := sock.ParseAddr(addr); addr != "" && err != nil {
				return nil, fmt.Errorf("%s: %w", a.flag, err)
			}
		}
	}
	addrs, caps, err := parseServers(*servers, *capacities)
	if err != nil {
		return nil, err
	}
	// The kind is core's to judge: asked here, so that the error names the flag.
	if _, err := core.NewLoadEstimator(*estKind, 1, core.DefaultEstimatorAlpha); err != nil {
		return nil, fmt.Errorf("-estimator: %w", err)
	}
	ecs, err := engine.ParseECSMode(*ecsMode)
	if err != nil {
		return nil, fmt.Errorf("-ecs-mode: %w", err)
	}
	var probeCfg probe.Config
	if *probeSpec != "" {
		spec, err := probe.ParseSpec(*probeSpec)
		if err != nil {
			return nil, fmt.Errorf("-probe: %w", err)
		}
		if *probeAddrs == "" {
			return nil, fmt.Errorf("-probe requires -probe-targets")
		}
		probeCfg = spec.Config(strings.Split(strings.ReplaceAll(*probeAddrs, " ", ""), ","))
	} else if *probeAddrs != "" {
		return nil, fmt.Errorf("-probe-targets requires -probe")
	}

	cluster, err := core.NewCluster(caps)
	if err != nil {
		return nil, err
	}
	state, err := core.NewState(cluster, *domains)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	pol, err := core.NewPolicy(core.PolicyConfig{
		Name:  *policy,
		State: state,
		Rand:  rand.New(rand.NewPCG(rand.Uint64(), rand.Uint64())),
		Now:   func() float64 { return time.Since(start).Seconds() },
	})
	if err != nil {
		return nil, err
	}

	s := &settings{
		flags: fs, capacities: caps, log: logOpts,
		configPath: *configPath, shutdownTimeout: *shutdownTO,
		server: dnsserver.Config{
			Zone:               *zone,
			ServerAddrs:        addrs,
			Policy:             pol,
			Addr:               *addr,
			HTTPAddr:           *httpAddr,
			MetricsAddr:        *metricsAddr,
			PprofAddr:          *pprofAddr,
			ReportAddr:         *reportAddr,
			MaxTCPConns:        *maxTCP,
			ECS:                ecs,
			Estimator:          *estKind,
			LivenessK:          *livenessK,
			LivenessInterval:   *livenessIv,
			Probe:              probeCfg,
			Replication:        dnsserver.ReplicationConfig{ReplicaID: *replicaID, Interval: *replIv},
			CheckpointPath:     *ckptPath,
			CheckpointInterval: *ckptIv,
			CheckpointMaxAge:   *ckptMaxAge,
		},
	}
	if s.server.ReportAddr == "" {
		s.server.ReportAddr = nextPort(*addr)
	}
	if !(*qps <= 0) { // NaN too, for the server to refuse
		s.server.RateLimit = dnsserver.NewRateLimiter(*qps, *burst)
	}
	if *peers != "" {
		s.server.Replication.Peers = strings.Split(*peers, ",")
	}
	return s, nil
}

// flagNames puts, in a server-configuration error, the flag in place of
// the Config field it sets.
var flagNames = strings.NewReplacer(
	"Replication.ReplicaID", "-replica-id", "Replication.Peers", "-peers",
	"Probe.Targets", "-probe-targets", "LivenessInterval", "-liveness-interval",
	"CheckpointInterval", "-checkpoint-interval",
	"RateLimit rate", "-qps", "RateLimit burst", "-burst")

// newServer assembles the server cfg describes. dnsserver.New holds
// every rule of a valid configuration and binds, reads and starts nothing,
// so this is also how a reload asks whether a restart would accept the
// file.
func newServer(cfg dnsserver.Config) (*dnsserver.Server, error) {
	srv, err := dnsserver.New(cfg)
	if err != nil {
		return nil, errors.New(flagNames.Replace(err.Error()))
	}
	return srv, nil
}

// run serves until stop closes: flags → Config → New → Start → wait →
// Shutdown. When non-nil, started is called with the bound addresses
// once every listener is up.
func run(args []string, stop <-chan struct{}, started func(boundAddrs)) error {
	s, err := configure(args)
	if err != nil {
		return err
	}
	logger, err := s.log.New(os.Stderr)
	if err != nil {
		return err
	}
	// The registry always exists — the SIGUSR1 dump works even without
	// an HTTP exposition endpoint.
	registry := metrics.NewRegistry()
	s.server.Logger, s.server.Metrics = logger, registry
	srv, err := newServer(s.server)
	if err != nil {
		return err
	}
	if repl := s.server.Replication; repl.ReplicaID != "" && len(repl.Peers) == 0 {
		logger.Warn("-replica-id ignored: no -peers configured")
	}
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Close()
	bound := boundAddrs{DNS: srv.Addr().String(), Report: srv.ReportAddr().String()}
	if a := srv.MetricsAddr(); a.IsValid() {
		bound.Metrics = a.String()
	}
	logger.Info("serving", "zone", s.server.Zone, "addr", bound.DNS, "report", bound.Report,
		"http", s.server.HTTPAddr, "metrics", bound.Metrics, "pprof", s.server.PprofAddr,
		"policy", s.server.Policy.Name(), "servers", len(s.server.ServerAddrs),
		"udp_workers", runtime.GOMAXPROCS(0))

	// SIGUSR1: dump a metrics snapshot to stderr, exposition-formatted,
	// so an operator can inspect a server that has no scrape endpoint
	// configured (or whose endpoint is unreachable). SIGHUP: reload the
	// config file's server set with zero downtime (config.go).
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGUSR1, syscall.SIGHUP)
	defer signal.Stop(sigs)
	go func() {
		for sig := range sigs {
			switch {
			case sig == syscall.SIGUSR1:
				fmt.Fprintln(os.Stderr, "--- metrics snapshot (SIGUSR1) ---")
				if err := registry.WritePrometheus(os.Stderr); err != nil {
					logger.Warn("metrics dump failed", "err", err)
				}
				fmt.Fprintln(os.Stderr, "--- end metrics snapshot ---")
			case s.configPath == "":
				logger.Warn("SIGHUP ignored: no -config file to reload")
			default:
				if err := reloadConfig(args, s.flags, srv, logger); err != nil {
					logger.Warn("config reload failed", "path", s.configPath, "err", err)
				}
			}
		}
	}()

	if started != nil {
		started(bound)
	}
	<-stop
	// Graceful shutdown: in-flight queries drain within the deadline, then
	// the final checkpoint carries the learned state over the restart.
	ctx, cancel := context.WithTimeout(context.Background(), s.shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("shutdown drain incomplete", "err", err)
	}
	st := srv.Stats()
	logger.Info("shutdown complete", "queries", st.Queries, "answered", st.Answered,
		"servfail", st.ServFail, "ratelimited", st.RateLimited)
	return nil
}

// parseServers parses the address and capacity lists. Capacities
// default to 100 hits/s each and must be sorted non-increasing (the
// paper numbers servers by decreasing capacity).
func parseServers(servers, capacities string) ([]netip.Addr, []float64, error) {
	parts, cparts := strings.Split(servers, ","), strings.Split(capacities, ",")
	if capacities != "" && len(cparts) != len(parts) {
		return nil, nil, fmt.Errorf("%d capacities for %d servers", len(cparts), len(parts))
	}
	addrs, caps := make([]netip.Addr, len(parts)), make([]float64, len(parts))
	for i, p := range parts {
		var err error
		if addrs[i], err = netip.ParseAddr(strings.TrimSpace(p)); err != nil {
			return nil, nil, fmt.Errorf("bad server address %q: %w", p, err)
		}
		caps[i] = 100
		if capacities != "" {
			if caps[i], err = strconv.ParseFloat(strings.TrimSpace(cparts[i]), 64); err != nil {
				return nil, nil, fmt.Errorf("bad capacity %q: %w", cparts[i], err)
			}
		}
	}
	return addrs, caps, nil
}

// nextPort returns the address one port after addr's — where the report
// socket goes when -report does not say. Next to an ephemeral DNS port
// it is ephemeral as well.
func nextPort(addr string) string {
	i := strings.LastIndexByte(addr, ':')
	p, err := strconv.ParseUint(addr[i+1:], 10, 16)
	if i < 0 || err != nil {
		return "127.0.0.1:0"
	}
	if p != 0 {
		p++
	}
	return addr[:i+1] + strconv.FormatUint(p, 10)
}
