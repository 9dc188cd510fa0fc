// Package backend provides a capacity-limited HTTP Web server with a
// self-reporting load agent: the real-network counterpart of the
// simulator's Web servers, running the same queue model
// (internal/webserver) on a wall clock. Requests consume service time
// from a single FIFO queue sized by the server's capacity in
// hits/second; the agent closes one busy-time utilization window per
// interval and pushes ALARM / HITS / ROLL lines to the DNS load-report
// socket, closing the paper's asynchronous feedback loop over real
// sockets.
//
// The agent reports through one reportlink.Link. Each new connection
// opens with the agent's hello: with AdvertiseAddr set, a JOIN that
// (re)registers the backend and learns its slot index, then an ALARM
// resyncing the alarm state. With RetireOnClose the backend sends a
// DRAIN on shutdown so the DNS drains it gracefully instead of waiting
// for the liveness timeout.
package backend

import (
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dnslb/internal/logging"
	"dnslb/internal/reportlink"
	"dnslb/internal/webserver"
)

// Config configures a backend server.
type Config struct {
	// Capacity is the service capacity in hits per second.
	Capacity float64
	// Addr is the HTTP listen address, e.g. "127.0.0.1:0".
	Addr string
	// ReportAddr is the DNS server's load-report socket. Empty
	// disables reporting (the agent still measures locally).
	ReportAddr string
	// ServerIndex is this server's index in the DNS scheduler's
	// cluster, used in ALARM lines. Ignored when AdvertiseAddr is set —
	// the index is then assigned by the DNS in the JOIN reply.
	ServerIndex int
	// AdvertiseAddr optionally enables self-registration: the backend's
	// own Web-facing IPv4 address, announced with a JOIN line each time
	// the report socket connects (idempotent — a reconnect or DNS
	// restart just re-registers the same address). Until the first JOIN
	// succeeds, the agent has no slot index and skips index-bearing
	// lines (ALIVE, ALARM); HITS/ROLL still flow.
	AdvertiseAddr string
	// RetireOnClose sends a DRAIN for this backend's slot on Close, so
	// the DNS starts a graceful drain instead of waiting out the
	// liveness timeout. Best effort: a dead report socket just logs.
	RetireOnClose bool
	// Domains is the number of connected domains for per-domain hit
	// accounting (HITS lines).
	Domains int
	// UtilizationInterval is the measurement/report period
	// (default 8 s, the paper's utilization interval).
	UtilizationInterval time.Duration
	// AlarmThreshold is the utilization θ that raises an alarm
	// (default 0.9).
	AlarmThreshold float64
	// Simulate makes request handling return immediately instead of
	// sleeping for the queued service time. Utilization accounting is
	// identical; only the client-visible latency differs. Useful for
	// fast demos and tests.
	Simulate bool
	// Logger receives structured agent diagnostics; nil discards.
	Logger *slog.Logger
}

// Server is one capacity-limited Web server.
//
// Each request carries its weight in hits via the X-Hits header or the
// ?hits= query parameter (default 1) and its source domain via the
// X-Domain header or ?domain= (default 0). A request of h hits
// occupies the server for h/Capacity seconds of queue time.
type Server struct {
	cfg Config

	// mu guards the queue, its clock origin and the alarm state. The
	// queue runs in seconds since start, read under mu so it never sees
	// time go backwards.
	mu      sync.Mutex
	queue   *webserver.Server
	start   time.Time
	alarmed bool

	// idx is the slot index used in index-bearing report lines: the
	// configured ServerIndex, or (with AdvertiseAddr) the index the DNS
	// assigned in the last JOIN reply; -1 until the first JOIN succeeds.
	idx atomic.Int64

	httpSrv  *http.Server
	listener net.Listener
	stop     chan struct{}
	done     chan struct{}
	logger   *slog.Logger

	link *reportlink.Link
}

// New creates a backend server; call Start.
func New(cfg Config) (*Server, error) {
	queue, err := webserver.New(cfg.Capacity, cfg.Domains)
	if err != nil {
		return nil, fmt.Errorf("backend: %w", err)
	}
	if cfg.UtilizationInterval <= 0 {
		cfg.UtilizationInterval = 8 * time.Second
	}
	if cfg.AlarmThreshold == 0 {
		cfg.AlarmThreshold = 0.9
	}
	if cfg.AlarmThreshold < 0 || cfg.AlarmThreshold > 1 {
		return nil, fmt.Errorf("backend: alarm threshold %v out of [0,1]", cfg.AlarmThreshold)
	}
	if cfg.AdvertiseAddr != "" {
		a, err := netip.ParseAddr(cfg.AdvertiseAddr)
		if err != nil || !a.Is4() {
			return nil, fmt.Errorf("backend: advertise address %q must be a literal IPv4 address", cfg.AdvertiseAddr)
		}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = logging.Discard()
	}
	s := &Server{
		cfg:    cfg,
		queue:  queue,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		logger: logger,
	}
	s.link = reportlink.New(cfg.ReportAddr, s.hello)
	if cfg.AdvertiseAddr != "" {
		s.idx.Store(-1)
	} else {
		s.idx.Store(int64(cfg.ServerIndex))
	}
	return s, nil
}

// Start binds the HTTP listener and launches the reporting agent.
func (s *Server) Start() error {
	addr := s.cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("backend: listen: %w", err)
	}
	s.listener = ln
	s.mu.Lock()
	s.start = time.Now()
	s.mu.Unlock()

	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handle)
	s.httpSrv = &http.Server{Handler: mux}
	go func() { _ = s.httpSrv.Serve(ln) }()
	go s.agentLoop()
	return nil
}

// Addr returns the bound address (valid after Start).
func (s *Server) Addr() net.Addr { return s.listener.Addr() }

// Close stops the server and the agent. With RetireOnClose, a DRAIN
// for this backend's slot is sent first (best effort), so the DNS
// drains the server gracefully. Closing a server that was never
// started is a no-op.
func (s *Server) Close() error {
	select {
	case <-s.stop:
		return nil
	default:
	}
	close(s.stop)
	if s.httpSrv == nil {
		return nil
	}
	err := s.httpSrv.Close()
	<-s.done
	if s.cfg.RetireOnClose && s.cfg.ReportAddr != "" {
		s.retire()
	}
	s.link.Close()
	return err
}

// ServerIndex returns the slot index this backend reports under: the
// configured index, or the one assigned by the DNS when AdvertiseAddr
// is set (-1 before the first successful JOIN).
func (s *Server) ServerIndex() int { return int(s.idx.Load()) }

// retire asks the DNS to drain this backend's slot over the report
// link. Failures only log: the liveness monitor is the fallback when the
// graceful path is gone.
func (s *Server) retire() {
	idx := s.ServerIndex()
	if idx < 0 {
		return // never joined; nothing to drain
	}
	if _, err := s.link.Exchange(fmt.Sprintf("DRAIN %d", idx)); err != nil {
		s.logger.Warn("retire failed; relying on liveness timeout", "err", err, "server", idx)
		return
	}
	s.logger.Info("retired from DNS membership", "server", idx)
}

// handle serves one request, charging its service time to the queue.
func (s *Server) handle(w http.ResponseWriter, r *http.Request) {
	hits := max(1, intParam(r, "X-Hits", "hits", 1))
	domain := intParam(r, "X-Domain", "domain", 0)

	s.mu.Lock()
	now := s.nowLocked()
	s.queue.Arrive(now, domain, hits)
	backlog := s.queue.Backlog(now)
	s.mu.Unlock()

	if !s.cfg.Simulate {
		// The response leaves when the queued work completes, so
		// clients observe real queueing latency.
		if wait := time.Duration(backlog * float64(time.Second)); wait > 0 {
			select {
			case <-time.After(wait):
			case <-s.stop:
			}
		}
	}
	w.Header().Set("X-Capacity", strconv.FormatFloat(s.cfg.Capacity, 'f', -1, 64))
	fmt.Fprintf(w, "served %d hit(s) for domain %d\n", hits, domain)
}

func intParam(r *http.Request, header, query string, def int) int {
	if v := r.Header.Get(header); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	if v := r.URL.Query().Get(query); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

// nowLocked returns the queue's clock: seconds since Start, and 0
// before it; callers hold mu.
func (s *Server) nowLocked() float64 {
	if s.start.IsZero() {
		return 0
	}
	return time.Since(s.start).Seconds()
}

// Utilization returns the busy fraction since the last agent window
// closed (a live reading, not a closed window).
func (s *Server) Utilization() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queue.Utilization(s.nowLocked())
}

// TotalHits returns the hits served since Start.
func (s *Server) TotalHits() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queue.TotalHits()
}

// Alarmed reports whether the last closed window exceeded θ.
func (s *Server) Alarmed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alarmed
}

// closeWindow closes one utilization window and returns its per-domain
// hits and whether the alarm state flipped.
func (s *Server) closeWindow() (hits []float64, flipped bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	over := s.queue.CloseWindow(s.nowLocked()) > s.cfg.AlarmThreshold
	hits = s.queue.TakeDomainHits()
	flipped = over != s.alarmed
	s.alarmed = over
	return hits, flipped
}

// agentLoop measures utilization every interval and pushes reports.
func (s *Server) agentLoop() {
	defer close(s.done)
	ticker := time.NewTicker(s.cfg.UtilizationInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			hits, flipped := s.closeWindow()
			if s.cfg.ReportAddr == "" {
				continue
			}
			// Every cycle opens with a heartbeat so the DNS liveness
			// monitor sees lightly loaded backends too. Before the first
			// JOIN assigns an index, the index-bearing lines are skipped
			// (the connect-time JOIN itself proves liveness, and the
			// reconnect resync delivers the current alarm state).
			var lines []string
			if idx := s.ServerIndex(); idx >= 0 {
				lines = append(lines, fmt.Sprintf("ALIVE %d", idx))
				if flipped {
					lines = append(lines, s.alarmLine(idx))
				}
			}
			for d, h := range hits {
				if h > 0 {
					lines = append(lines, fmt.Sprintf("HITS %d %g", d, h))
				}
			}
			lines = append(lines, fmt.Sprintf("ROLL %g", s.cfg.UtilizationInterval.Seconds()))
			if err := s.report(lines); err != nil {
				s.logger.Warn("report failed", "err", err, "server", s.ServerIndex())
			}
		}
	}
}

// report sends one cycle's lines over the report link. While the socket
// is down the cycle's report is lost (matching the lossy feedback
// channel the paper assumes); the link keeps redialing under backoff,
// and its hello resynchronizes once the DNS side is back.
func (s *Server) report(lines []string) error {
	for _, line := range lines {
		if _, err := s.link.Exchange(line); err != nil {
			return err
		}
	}
	return nil
}

// hello opens every new report connection. Self-registration rides it:
// idempotent on the DNS side, a JOIN re-admits this backend after a
// drain or a DNS restart and keeps the slot index current. Then the
// alarm state is resynced, since the DNS side may have missed an alarm
// transition (or marked us down) while the socket was broken.
func (s *Server) hello(exchange func(string) (string, error)) error {
	if s.cfg.AdvertiseAddr != "" {
		reply, err := exchange(fmt.Sprintf("JOIN %s %g", s.cfg.AdvertiseAddr, s.cfg.Capacity))
		if err != nil {
			return fmt.Errorf("backend: join: %w", err)
		}
		idx, err := strconv.Atoi(reply)
		if err != nil || idx < 0 {
			return fmt.Errorf("backend: join reply has bad index: %q", reply)
		}
		s.idx.Store(int64(idx))
		s.logger.Info("joined DNS membership", "server", idx, "addr", s.cfg.AdvertiseAddr)
	}
	idx := s.ServerIndex()
	if idx < 0 {
		return nil
	}
	if _, err := exchange(s.alarmLine(idx)); err != nil {
		return err
	}
	s.logger.Info("report socket connected, alarm state resynced", "server", idx, "alarmed", s.Alarmed())
	return nil
}

// alarmLine reports slot idx's current alarm state.
func (s *Server) alarmLine(idx int) string {
	flag := 0
	if s.Alarmed() {
		flag = 1
	}
	return fmt.Sprintf("ALARM %d %d", idx, flag)
}
