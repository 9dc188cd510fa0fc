package dnsserver

import (
	"strconv"
	"sync"

	"dnslb/internal/core"
	"dnslb/internal/engine"
	"dnslb/internal/metrics"
)

// Metric series exposed by an instrumented Server (Config.Metrics).
// Naming follows DESIGN.md §10: dnslb_<subsystem>_<quantity>_<unit>,
// with low-cardinality labels only (server index, policy name, outcome,
// class). Everything the hot path already counts — the sharded serve
// counters, the policy's atomic decision counters, the state's
// transition counters — is exported through Func series read at scrape
// time, so enabling exposition adds zero work per query for those. The
// only new per-query work is the two histograms (latency, returned
// TTL), whose updates are a bucket increment plus a sharded sum CAS.
//
// Per-server series are registered through ensureServerSeries so a
// server joined at runtime (JOIN verb, SIGHUP reload) gets its series
// on admission; the registry refuses duplicate registration, so the
// registered count is tracked under a mutex.

// queryDurationBuckets covers the serve path from ~5µs (decode+schedule
// +encode on loopback) up to 50ms (a struggling server); seconds.
var queryDurationBuckets = []float64{
	5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 5e-2,
}

// ttlBuckets covers the adaptive-TTL range: the paper's TTL/i values
// run from a few seconds for hot domains on slow servers up past the
// 240 s constant-TTL baseline; seconds.
var ttlBuckets = []float64{1, 5, 15, 30, 60, 120, 240, 480, 960, 1920}

// ecsScopeBuckets covers the RFC 7871 scope prefix lengths the server
// echoes: 0 (answer not subnet-tailored), the v4 granularities up to
// the /24 recommendation and full /32, and the v6 ladder up to /128.
var ecsScopeBuckets = []float64{0, 8, 16, 24, 32, 48, 56, 64, 96, 128}

// serverMetrics holds the handles the serve path updates directly.
type serverMetrics struct {
	reg *metrics.Registry
	srv *Server

	latency  *metrics.Histogram
	ttl      *metrics.Histogram
	ecsScope *metrics.Histogram

	mu          sync.Mutex
	serverSlots int // per-server series registered for slots [0, serverSlots)
}

// newServerMetrics registers the server's series on reg and returns
// the hot-path handles. Called once from New, before any serving.
func newServerMetrics(reg *metrics.Registry, s *Server) *serverMetrics {
	m := &serverMetrics{reg: reg, srv: s}

	// DNS front end: query totals by outcome, pulled from the sharded
	// serve counters the handlers already maintain.
	reg.NewCounterFunc("dnslb_dns_queries_total",
		"DNS queries received, before any classification.",
		nil, func() uint64 { return s.statsTotal(cQueries) })
	for _, tr := range []engine.Transport{engine.TransportUDP, engine.TransportTCP, engine.TransportDoH} {
		reg.NewCounterFunc("dnslb_dns_queries_total",
			"DNS queries received, before any classification.",
			metrics.Labels{"transport", tr.String()},
			func() uint64 { return s.statsTotal(cTransport + statsCounter(tr)) })
	}
	for _, oc := range []struct {
		name string
		c    statsCounter
	}{
		{"answered", cAnswered},
		{"nxdomain", cNXDomain},
		{"formerr", cFormErr},
		{"notimp", cNotImp},
		{"servfail", cServFail},
		{"truncated", cTruncated},
		{"ratelimited", cRateLimited},
	} {
		reg.NewCounterFunc("dnslb_dns_responses_total",
			"DNS responses by outcome (formerr counts malformed packets, ratelimited counts rate-limit drops).",
			metrics.Labels{"outcome", oc.name}, func() uint64 { return s.statsTotal(oc.c) })
	}
	m.latency = reg.NewHistogram("dnslb_dns_query_duration_seconds",
		"Per-query serve latency (decode, schedule, encode), measured in each UDP worker.",
		nil, queryDurationBuckets)
	m.ttl = reg.NewHistogram("dnslb_dns_ttl_seconds",
		"TTL values handed out with A answers, before rounding to the wire.",
		nil, ttlBuckets)
	m.ecsScope = reg.NewHistogram("dnslb_dns_ecs_scope_prefix",
		"RFC 7871 scope prefix lengths echoed with ECS-carrying answers (0 = answer not tailored to the client subnet).",
		nil, ecsScopeBuckets)
	reg.NewCounterFunc("dnslb_dns_panics_total",
		"Query-handler panics recovered by the serve workers.",
		nil, s.panics.Load)

	reg.NewGaugeFunc("dnslb_dns_udp_workers",
		"Parallel UDP serve workers.",
		nil, func() float64 { return float64(s.udpWorkers) })

	// DoH front end (doh.go): request outcomes. The series exist even
	// when no HTTP listener is configured (all zero) so dashboards need
	// no conditional scrape config.
	reg.NewCounterFunc("dnslb_doh_requests_total",
		"DoH requests answered successfully.",
		metrics.Labels{"outcome", "ok"}, s.dohOK.Load)
	reg.NewCounterFunc("dnslb_doh_requests_total",
		"DoH requests rejected before reaching the query path (method, media type, encoding, size).",
		metrics.Labels{"outcome", "bad_request"}, s.dohBadRequest.Load)
	reg.NewCounterFunc("dnslb_doh_requests_total",
		"DoH requests whose query the handler dropped (unanswerable wire message).",
		metrics.Labels{"outcome", "dropped"}, s.dohDropped.Load)

	// TCP connection bound (satellite of the robustness layer): the live
	// connection count next to the configured cap.
	reg.NewGaugeFunc("dnslb_dns_tcp_conns",
		"TCP connections currently being served.",
		nil, func() float64 { return float64(s.tcpConns.Load()) })
	reg.NewGaugeFunc("dnslb_dns_tcp_conns_max",
		"Configured concurrent TCP connection cap (0 = unlimited).",
		nil, func() float64 { return float64(s.maxTCPConns) })

	// Scheduling policy: class-level decision counters and no-server
	// failures from the policy's own atomics (per-server decisions are
	// registered in ensureServerSeries).
	pol := s.policy
	polLabel := pol.Name()
	for _, class := range []core.DomainClass{core.ClassNormal, core.ClassHot} {
		class := class
		reg.NewCounterFunc("dnslb_policy_decisions_class_total",
			"Scheduling decisions by domain class.",
			metrics.Labels{"policy", polLabel, "class", class.String()},
			func() uint64 { return pol.ClassDecisions(class) })
	}
	reg.NewCounterFunc("dnslb_policy_no_server_errors_total",
		"Schedule calls that failed because every server was down.",
		metrics.Labels{"policy", polLabel},
		func() uint64 { return pol.NoServerErrors() })

	// Scheduler state: alarm/liveness standing and transition counts.
	st := pol.State()
	reg.NewCounterFunc("dnslb_state_alarm_transitions_total",
		"Alarm flag flips across all servers (raise and clear each count once).",
		nil, st.AlarmTransitions)
	reg.NewCounterFunc("dnslb_state_down_transitions_total",
		"Liveness flag flips across all servers (exclusion and re-admission each count once).",
		nil, st.DownTransitions)
	reg.NewGaugeFunc("dnslb_state_live_servers",
		"Servers currently eligible for new mappings.",
		nil, func() float64 { return float64(st.Snapshot().LiveServers()) })
	reg.NewGaugeFunc("dnslb_state_hot_domains",
		"Domains currently classified hot (weight above beta).",
		nil, func() float64 { return float64(st.Snapshot().HotDomains()) })

	// Membership reconfiguration and checkpointing.
	reg.NewCounterFunc("dnslb_reconfig_joins_total",
		"Servers admitted (or re-admitted) through JOIN or config reload.",
		nil, s.joins.Load)
	reg.NewCounterFunc("dnslb_reconfig_drains_total",
		"Graceful drains started through DRAIN or config reload.",
		nil, s.drains.Load)
	reg.NewCounterFunc("dnslb_reconfig_removals_total",
		"Servers removed from membership after their drain window closed.",
		nil, s.removals.Load)
	reg.NewCounterFunc("dnslb_reconfig_reloads_total",
		"Configuration reloads applied successfully.",
		nil, s.reloads.Load)
	reg.NewCounterFunc("dnslb_reconfig_reload_errors_total",
		"Configuration reloads that failed validation or application.",
		nil, s.reloadErrs.Load)
	reg.NewGaugeFunc("dnslb_reconfig_member_servers",
		"Server slots currently in membership (active or draining).",
		nil, func() float64 { return float64(st.Snapshot().MemberServers()) })
	reg.NewCounterFunc("dnslb_checkpoint_saves_total",
		"State checkpoints written successfully.",
		nil, s.ckptSaves.Load)
	reg.NewCounterFunc("dnslb_checkpoint_errors_total",
		"State checkpoint writes that failed.",
		nil, s.ckptErrs.Load)

	// Hidden-load estimator: kind-tagged feedback-loop health. The
	// forecast series exist only for a forecasting estimator (the
	// predictive kind): forecast demand is its current prediction of
	// total hidden load, and the error gauge is its smoothed mean
	// absolute per-domain miss — the calibration signal for
	// forecast-driven alarms.
	kind := s.eng.EstimatorKind()
	reg.NewCounterFunc("dnslb_estimator_rejected_total",
		"Hit observations the estimator refused (out-of-range domain or negative count).",
		metrics.Labels{"kind", kind},
		s.eng.EstimatorRejected)
	reg.NewGaugeFunc("dnslb_estimator_rolls_total",
		"Completed hidden-load collection intervals.",
		metrics.Labels{"kind", kind},
		func() float64 {
			if st, ok := s.eng.EstimatorState(); ok {
				return float64(st.Rolls)
			}
			return 0
		})
	if _, ok := s.eng.ForecastError(); ok {
		reg.NewGaugeFunc("dnslb_estimator_forecast_abs_error_hits_per_second",
			"Smoothed mean absolute per-domain forecast error of the predictive estimator.",
			metrics.Labels{"kind", kind},
			func() float64 { abs, _ := s.eng.ForecastError(); return abs })
		reg.NewGaugeFunc("dnslb_estimator_forecast_demand_hits_per_second",
			"Predicted total hidden-load demand across domains at scrape time.",
			metrics.Labels{"kind", kind},
			func() float64 {
				rates, ok := s.eng.ForecastRates(s.eng.Now())
				if !ok {
					return 0
				}
				var sum float64
				for _, r := range rates {
					sum += r
				}
				return sum
			})
	}

	// Report protocol: accepted and rejected lines, plus connection
	// lifecycle — the link-health signal backend agents and replication
	// peers share (both ride the same socket).
	reg.NewCounterFunc("dnslb_report_lines_total",
		"Load-report lines by result.", metrics.Labels{"status", "ok"}, s.report.ok.Load)
	reg.NewCounterFunc("dnslb_report_lines_total",
		"Load-report lines by result.", metrics.Labels{"status", "error"}, s.report.err.Load)
	reg.NewCounterFunc("dnslb_report_conn_opened_total",
		"Report-socket connections accepted.", nil, s.report.opened.Load)
	reg.NewCounterFunc("dnslb_report_conn_closed_total",
		"Report-socket connections closed (any reason).", nil, s.report.closed.Load)
	reg.NewCounterFunc("dnslb_report_conn_errors_total",
		"Report-socket connections torn down by read or write errors.", nil, s.report.connErrors.Load)

	m.ensureServerSeries(s.Servers())
	return m
}

// ensureServerSeries registers the per-server series for any slot in
// [0, n) that does not have them yet. Idempotent; safe to call from
// joinLocked when a fresh slot is admitted. The registry panics on
// duplicate registration, so the already-registered count is the
// guard.
func (m *serverMetrics) ensureServerSeries(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n <= m.serverSlots {
		return
	}
	pol := m.srv.policy
	polLabel := pol.Name()
	st := pol.State()
	for i := m.serverSlots; i < n; i++ {
		i := i
		m.reg.NewCounterFunc("dnslb_policy_decisions_total",
			"Scheduling decisions that chose each Web server.",
			metrics.Labels{"policy", polLabel, "server", strconv.Itoa(i)},
			func() uint64 { return pol.ServerDecisions(i) })
		lbl := metrics.Labels{"server", strconv.Itoa(i)}
		m.reg.NewGaugeFunc("dnslb_state_server_alarmed",
			"1 while the server's alarm is raised.", lbl,
			func() float64 { return boolGauge(st.Snapshot().Alarmed(i)) })
		m.reg.NewGaugeFunc("dnslb_state_server_down",
			"1 while the server is excluded as failed.", lbl,
			func() float64 { return boolGauge(st.Snapshot().Down(i)) })
		m.reg.NewGaugeFunc("dnslb_state_server_draining",
			"1 while the server is draining (no new mappings, hidden-load window still open).", lbl,
			func() float64 { return boolGauge(st.Snapshot().Draining(i)) })
	}
	m.serverSlots = n
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
