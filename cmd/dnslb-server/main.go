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
// logs; -pprof serves net/http/pprof.
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
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof flag: registers /debug/pprof handlers
	"net/netip"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dnslb"
	"dnslb/internal/logging"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() {
		<-sig
		close(stop)
	}()
	if err := run(os.Args[1:], stop, nil); err != nil {
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

// run serves until stop closes. When non-nil, started is called with
// the bound addresses once every listener is up.
func run(args []string, stop <-chan struct{}, started func(boundAddrs)) error {
	fs := flag.NewFlagSet("dnslb-server", flag.ContinueOnError)
	var (
		zone        = fs.String("zone", "www.site.example", "zone name answered authoritatively")
		addr        = fs.String("addr", "127.0.0.1:5353", "DNS listen address (UDP and TCP)")
		reportAddr  = fs.String("report", "", "load-report listen address (empty = port after DNS port)")
		policy      = fs.String("policy", "DRR2-TTL/S_K", "scheduling policy")
		servers     = fs.String("servers", "", "comma-separated Web server IPv4 addresses (required)")
		capacities  = fs.String("capacities", "", "comma-separated capacities in hits/s (default: equal)")
		domains     = fs.Int("domains", 20, "connected domains for source classification")
		estAlpha    = fs.Float64("estimator-alpha", dnslb.DefaultEstimatorAlpha, "EWMA weight of the newest hidden-load collection interval, in (0,1]")
		estKind     = fs.String("estimator", dnslb.EstimatorReactive, "hidden-load estimator kind: reactive or predictive")
		geoPref     = fs.Float64("geo-preference", 0, "probability of answering with the nearest server instead of the policy's choice (0 = disabled)")
		geoBaseMS   = fs.Float64("geo-base-ms", 0, "base latency of the synthetic ring geography in ms (0 = default)")
		geoSpanMS   = fs.Float64("geo-span-ms", 0, "latency span of the synthetic ring geography in ms (0 = default)")
		qps         = fs.Float64("qps", 0, "per-source query rate limit (0 = unlimited)")
		burst       = fs.Float64("burst", 10, "per-source burst allowance when -qps is set")
		livenessK   = fs.Int("liveness-k", 3, "missed report intervals before a backend is marked down (0 = disable liveness)")
		livenessIv  = fs.Duration("liveness-interval", 8*time.Second, "expected backend report interval")
		probeSpec   = fs.String("probe", "", "active health probe spec: tcp[,interval=2s][,timeout=500ms][,fail=3][,rise=2][,jitter=0.2] or http=/path,... (empty = disabled)")
		probeAddrs  = fs.String("probe-targets", "", "comma-separated probe endpoints, one per -servers entry in order; empty entries skip a slot (required with -probe)")
		overQPS     = fs.Float64("overload-qps", 0, "aggregate query rate ceiling; above it the server degrades to static weighted answers (0 = disabled)")
		overTTL     = fs.Float64("overload-ttl", 5, "TTL in seconds for degraded-mode answers")
		overStale   = fs.Int("overload-stale-rolls", 0, "degrade when replication is down and the estimator missed this many roll intervals (0 = disabled)")
		maxTCP      = fs.Int("max-tcp-conns", 0, "concurrent connection cap of each stream listener (TCP, and DoH under -http-addr); accepts pause at the cap (0 = default 512, negative = unlimited)")
		udpWorkers  = fs.Int("udp-workers", 0, "parallel UDP serve goroutines (0 = GOMAXPROCS)")
		httpAddr    = fs.String("http-addr", "", "DNS-over-HTTP listen address: RFC 8484 wire on /dns-query, JSON on /resolve (empty = disabled)")
		ecsMode     = fs.String("ecs-mode", "", "EDNS-Client-Subnet handling: passthrough (default), add, or override")
		ecsV4       = fs.Int("ecs-v4-prefix", 0, "IPv4 ECS source-prefix granularity for clamping and synthesis (0 = /24)")
		ecsV6       = fs.Int("ecs-v6-prefix", 0, "IPv6 ECS source-prefix granularity for clamping and synthesis (0 = /56)")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
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
		return err
	}
	if *configPath != "" {
		if err := applyConfigFile(fs, *configPath); err != nil {
			return err
		}
	}
	if *servers == "" {
		return fmt.Errorf("-servers is required")
	}
	// Validate estimator knobs at flag-parse time (after the config
	// file is applied) so a bad value fails with a clear message
	// instead of surfacing from deep inside server construction.
	if *estAlpha <= 0 || *estAlpha > 1 {
		return fmt.Errorf("-estimator-alpha %v out of range: must be in (0,1]", *estAlpha)
	}
	if *estKind != dnslb.EstimatorReactive && *estKind != dnslb.EstimatorPredictive {
		return fmt.Errorf("-estimator %q unknown: want %s or %s",
			*estKind, dnslb.EstimatorReactive, dnslb.EstimatorPredictive)
	}
	ecsParsed, err := dnslb.ParseECSMode(*ecsMode)
	if err != nil {
		return fmt.Errorf("-ecs-mode: %w", err)
	}
	addrs, caps, err := parseServers(*servers, *capacities)
	if err != nil {
		return err
	}
	logger, err := logOpts.New(os.Stderr)
	if err != nil {
		return err
	}

	cluster, err := dnslb.NewCluster(caps)
	if err != nil {
		return err
	}
	state, err := dnslb.NewState(cluster, *domains)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(rand.Uint64(), rand.Uint64()))
	start := time.Now()
	polCfg := dnslb.PolicyConfig{
		Name:  *policy,
		State: state,
		Rand:  rng,
		Now:   func() float64 { return time.Since(start).Seconds() },
	}
	// Proximity steering uses the same ring-geography helper the
	// simulator does, so both paths derive identical latency matrices
	// from identical knobs.
	prox, err := dnslb.RingProximityConfig(*domains, len(addrs), *geoPref, *geoBaseMS, *geoSpanMS)
	if err != nil {
		return err
	}
	if prox != nil {
		polCfg.Proximity = prox
		logger.Info("proximity steering enabled", "preference", *geoPref)
	}
	pol, err := dnslb.NewPolicy(polCfg)
	if err != nil {
		return err
	}

	// The registry always exists — the SIGUSR1 dump works even without
	// an HTTP exposition endpoint.
	registry := dnslb.NewMetricsRegistry()
	cfg := dnslb.DNSServerConfig{
		Zone:           *zone,
		ServerAddrs:    addrs,
		Policy:         pol,
		Addr:           *addr,
		Logger:         logger,
		UDPWorkers:     *udpWorkers,
		HTTPAddr:       *httpAddr,
		ECS:            dnslb.ECSConfig{Mode: ecsParsed, V4Prefix: *ecsV4, V6Prefix: *ecsV6},
		EstimatorAlpha: *estAlpha,
		Estimator:      *estKind,
		Metrics:        registry,
	}
	if *qps > 0 {
		cfg.RateLimit = dnslb.NewRateLimiter(*qps, *burst)
	}
	cfg.MaxTCPConns = *maxTCP
	cfg.Overload = dnslb.OverloadConfig{
		QPSCeiling:  *overQPS,
		DegradedTTL: *overTTL,
		StaleRolls:  *overStale,
	}
	// Parse the probe spec before building the server so a bad flag
	// fails fast; probing itself starts once the server is up.
	var probeCfg *dnslb.ProbeConfig
	if *probeSpec != "" {
		spec, err := dnslb.ParseProbeSpec(*probeSpec)
		if err != nil {
			return fmt.Errorf("-probe: %w", err)
		}
		if *probeAddrs == "" {
			return fmt.Errorf("-probe requires -probe-targets")
		}
		targets := strings.Split(*probeAddrs, ",")
		if len(targets) != len(addrs) {
			return fmt.Errorf("-probe-targets has %d entries for %d servers", len(targets), len(addrs))
		}
		for i := range targets {
			targets[i] = strings.TrimSpace(targets[i])
		}
		pc := spec.Config(targets)
		probeCfg = &pc
	} else if *probeAddrs != "" {
		return fmt.Errorf("-probe-targets requires -probe")
	}
	srv, err := dnslb.NewDNSServer(cfg)
	if err != nil {
		return err
	}
	if *livenessK > 0 {
		monitor, err := dnslb.NewLivenessMonitor(srv, *livenessIv, *livenessK)
		if err != nil {
			return err
		}
		defer monitor.Close()
		logger.Info("liveness enabled", "k", *livenessK, "interval", *livenessIv)
	}
	// Warm-start from the checkpoint before serving (and after the
	// liveness monitor attaches, so restored down flags clear on the
	// backend's next report). Any problem means a clean cold start.
	if *ckptPath != "" {
		restoreCheckpoint(srv, *ckptPath, *ckptMaxAge, logger)
	}
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Close()
	logger.Info("serving", "zone", *zone, "addr", srv.Addr().String(),
		"policy", *policy, "servers", len(addrs),
		"udp_workers", srv.UDPWorkers())
	if ha := srv.HTTPAddr(); ha != nil {
		logger.Info("DNS-over-HTTP enabled",
			"wire", fmt.Sprintf("http://%s/dns-query", ha),
			"json", fmt.Sprintf("http://%s/resolve", ha))
	}
	if *ecsMode != "" && *ecsMode != "passthrough" {
		logger.Info("ECS mode", "mode", ecsParsed.String())
	}

	if probeCfg != nil {
		if _, err := srv.StartProbing(*probeCfg); err != nil {
			return err
		}
		logger.Info("active probing enabled", "spec", *probeSpec, "targets", *probeAddrs)
	}
	if cfg.Overload.Enabled() {
		logger.Info("overload degradation enabled",
			"qps_ceiling", *overQPS, "degraded_ttl", *overTTL, "stale_rolls", *overStale)
	}

	if *pprofAddr != "" {
		// net/http/pprof registers its handlers on DefaultServeMux at
		// import; a plain server on that mux exposes them. Profiling
		// the lock-free query path under load is the point, so this
		// stays opt-in and should never face the public internet.
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listen: %w", err)
		}
		defer ln.Close()
		go func() {
			if err := http.Serve(ln, nil); err != nil && !errors.Is(err, net.ErrClosed) {
				logger.Warn("pprof server exited", "err", err)
			}
		}()
		logger.Info("pprof enabled", "url", fmt.Sprintf("http://%s/debug/pprof/", ln.Addr()))
	}

	boundMetrics := ""
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listen: %w", err)
		}
		defer ln.Close()
		mux := http.NewServeMux()
		mux.Handle("/metrics", registry.Handler())
		go func() {
			if err := http.Serve(ln, mux); err != nil && !errors.Is(err, net.ErrClosed) {
				logger.Warn("metrics server exited", "err", err)
			}
		}()
		boundMetrics = ln.Addr().String()
		logger.Info("metrics enabled", "url", fmt.Sprintf("http://%s/metrics", ln.Addr()))
	}

	// SIGUSR1: dump a metrics snapshot to stderr, exposition-formatted,
	// so an operator can inspect a server that has no scrape endpoint
	// configured (or whose endpoint is unreachable).
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	defer signal.Stop(usr1)
	go func() {
		for range usr1 {
			fmt.Fprintln(os.Stderr, "--- metrics snapshot (SIGUSR1) ---")
			if err := registry.WritePrometheus(os.Stderr); err != nil {
				logger.Warn("metrics dump failed", "err", err)
			}
			fmt.Fprintln(os.Stderr, "--- end metrics snapshot ---")
		}
	}()

	rAddr := *reportAddr
	if rAddr == "" {
		rAddr = nextPort(srv.Addr().String())
	}
	reporter, err := dnslb.NewReportListener(srv, rAddr)
	if err != nil {
		return err
	}
	defer reporter.Close()
	logger.Info("load reports enabled", "addr", reporter.Addr().String(),
		"protocol", "ALIVE/ALARM/HITS/ROLL/JOIN/DRAIN/REPL")

	// Multi-replica soft-state replication: peer deltas arrive as REPL
	// lines on the report socket above; outbound gossip dials the peers'
	// report sockets. Losing every peer only degrades to local-only
	// scheduling — queries are never refused on account of replication.
	if *peers != "" {
		if *replicaID == "" {
			return fmt.Errorf("-peers requires -replica-id")
		}
		if err := srv.StartReplication(dnslb.ReplicationConfig{
			ReplicaID: *replicaID,
			Peers:     strings.Split(*peers, ","),
			Interval:  *replIv,
		}); err != nil {
			return err
		}
	} else if *replicaID != "" {
		logger.Warn("-replica-id ignored: no -peers configured")
	}

	var ckpt *dnslb.Checkpointer
	if *ckptPath != "" {
		ckpt, err = dnslb.NewCheckpointer(srv, *ckptPath, *ckptIv)
		if err != nil {
			return err
		}
		defer ckpt.Close()
		logger.Info("checkpointing enabled", "path", *ckptPath, "interval", *ckptIv)
	}

	// SIGHUP: re-read the config file and apply the server set (joins,
	// graceful drains, capacity changes) with zero downtime. Without
	// -config there is nothing to re-read.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			if *configPath == "" {
				logger.Warn("SIGHUP ignored: no -config file to reload")
				continue
			}
			if err := reloadConfig(fs, *configPath, srv, logger); err != nil {
				logger.Warn("config reload failed", "path", *configPath, "err", err)
			}
		}
	}()

	if started != nil {
		started(boundAddrs{
			DNS:     srv.Addr().String(),
			Report:  reporter.Addr().String(),
			Metrics: boundMetrics,
		})
	}
	<-stop
	// Graceful shutdown: stop accepting, drain in-flight queries within
	// the deadline, then flush one final checkpoint so the learned
	// state survives the restart.
	ctx, cancel := context.WithTimeout(context.Background(), *shutdownTO)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("shutdown drain incomplete", "err", err)
	}
	if ckpt != nil {
		if err := ckpt.Close(); err != nil {
			logger.Warn("final checkpoint failed", "path", *ckptPath, "err", err)
		} else {
			logger.Info("final checkpoint written", "path", *ckptPath)
		}
	}
	st := srv.Stats()
	logger.Info("shutdown complete", "queries", st.Queries, "answered", st.Answered,
		"servfail", st.ServFail, "ratelimited", st.RateLimited)
	return nil
}

// restoreCheckpoint warm-starts srv from a checkpoint file. Every
// failure mode — missing, unreadable, corrupt, stale, or mismatched
// with the running configuration — logs and leaves the server in its
// cold-start state; a checkpoint is advisory, never required.
func restoreCheckpoint(srv *dnslb.DNSServer, path string, maxAge time.Duration, logger *slog.Logger) {
	cp, err := dnslb.LoadCheckpoint(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		logger.Info("no checkpoint; cold start", "path", path)
	case err != nil:
		logger.Warn("checkpoint unreadable; cold start", "path", path, "err", err)
	default:
		if err := srv.RestoreCheckpoint(cp, maxAge); err != nil {
			logger.Warn("checkpoint rejected; cold start", "path", path, "err", err)
		} else {
			logger.Info("checkpoint restored", "path", path,
				"saved_at", cp.SavedAt.Format(time.RFC3339))
		}
	}
}

// parseServers parses the address and capacity lists. Capacities
// default to 100 hits/s each and must be sorted non-increasing (the
// paper numbers servers by decreasing capacity).
func parseServers(servers, capacities string) ([]netip.Addr, []float64, error) {
	parts := strings.Split(servers, ",")
	addrs := make([]netip.Addr, 0, len(parts))
	for _, p := range parts {
		a, err := netip.ParseAddr(strings.TrimSpace(p))
		if err != nil {
			return nil, nil, fmt.Errorf("bad server address %q: %w", p, err)
		}
		addrs = append(addrs, a)
	}
	caps := make([]float64, len(addrs))
	if capacities == "" {
		for i := range caps {
			caps[i] = 100
		}
		return addrs, caps, nil
	}
	cparts := strings.Split(capacities, ",")
	if len(cparts) != len(addrs) {
		return nil, nil, fmt.Errorf("%d capacities for %d servers", len(cparts), len(addrs))
	}
	for i, p := range cparts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, nil, fmt.Errorf("bad capacity %q: %w", p, err)
		}
		caps[i] = v
	}
	return addrs, caps, nil
}

// nextPort returns host:port+1 of the given address.
func nextPort(addr string) string {
	ap, err := netip.ParseAddrPort(addr)
	if err != nil {
		return "127.0.0.1:0"
	}
	return netip.AddrPortFrom(ap.Addr(), ap.Port()+1).String()
}
