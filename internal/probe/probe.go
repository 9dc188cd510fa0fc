// Package probe implements active health checking for backend web
// servers: per-target TCP-connect (or shallow HTTP GET) probes on a
// jittered interval with fail-N/rise-M hysteresis.
//
// It is the active counterpart to the passive k-missed-reports
// liveness monitor in internal/dnsserver. The passive detector can
// only notice silence — it waits k report intervals before concluding
// a backend died, and a partitioned report path looks identical to a
// dead backend. Active probes attack both weaknesses: they detect a
// crashed backend in about fail-N × interval regardless of the report
// schedule, and they keep voting "up" for a backend whose report path
// is cut but whose service port still answers. The DNS server combines
// the two detectors: down if either fires, up only when both agree.
//
// The package is transport-only and callback-driven: it knows nothing
// about engines or DNS. Wiring lives in internal/dnsserver.
package probe

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dnslb/internal/sock"
)

// Defaults applied by New when Config leaves the knob zero.
const (
	DefaultInterval = 2 * time.Second
	DefaultFailN    = 3
	DefaultRiseM    = 2
	DefaultJitter   = 0.2
)

// Target is one probe destination. An empty Addr disables probing for
// that slot (the slot keeps reporting up so it never vetoes revival).
type Target struct {
	Addr     string // ip:port of the service port to probe (sock.ParseAddr)
	HTTPPath string // if non-empty, send "GET <path>" and require a 2xx/3xx status
}

// Config configures a Prober.
type Config struct {
	Targets []Target

	Interval time.Duration // mean probe period per target (default 2s)
	Jitter   float64       // fraction of Interval randomized per cycle, [0,1); 0 disables
	Timeout  time.Duration // per-probe dial+response budget (default Interval/2)
	FailN    int           // consecutive failures before declaring down (default 3)
	RiseM    int           // consecutive successes before declaring up (default 2)

	// OnTransition fires outside the prober's locks whenever a target's
	// standing flips. Required for the prober to be useful, optional
	// for tests.
	OnTransition func(target int, down bool)

	Logger *slog.Logger
	Seed   uint64 // fixes the jitter stream; 0 derives one from the clock

	// Dialer overrides dialing the TCP address addr, a seam for tests
	// and for callers that need source-address control. Defaults to
	// sock.Dial.
	Dialer func(ctx context.Context, addr string) (Conn, error)
}

// Conn is what a probe does with a dialed connection; a *sock.Conn and a
// net.Conn are both one.
type Conn interface {
	io.ReadWriteCloser
	SetDeadline(time.Time) error
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.Jitter < 0 || c.Jitter >= 1 {
		c.Jitter = 0
	}
	if c.Timeout <= 0 {
		c.Timeout = c.Interval / 2
	}
	if c.FailN <= 0 {
		c.FailN = DefaultFailN
	}
	if c.RiseM <= 0 {
		c.RiseM = DefaultRiseM
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(discard{}, nil))
	}
	if c.Dialer == nil {
		c.Dialer = func(ctx context.Context, addr string) (Conn, error) { return sock.Dial(ctx, addr) }
	}
	return c
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TargetStats is a snapshot of one target's probe history.
type TargetStats struct {
	Addr        string
	Probes      uint64 // probes attempted
	Failures    uint64 // probes that failed
	Transitions uint64 // standing flips (either direction)
	Down        bool
}

// Prober runs one probing goroutine per target.
type Prober struct {
	cfg Config

	mu      sync.Mutex
	targets []*targetState
	started bool
	closed  bool

	done chan struct{}
	wg   sync.WaitGroup
}

type targetState struct {
	target Target
	rng    *rand.Rand // jitter stream; owned by the target's goroutine
	down   atomic.Bool

	probes      atomic.Uint64
	failures    atomic.Uint64
	transitions atomic.Uint64

	consecFail int // owned by the goroutine
	consecOK   int
}

// New validates the configuration and builds a Prober. Call Start to
// begin probing.
func New(cfg Config) (*Prober, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Targets) == 0 {
		return nil, errors.New("probe: no targets")
	}
	for i, t := range cfg.Targets {
		if t.Addr == "" {
			continue
		}
		if _, err := sock.ParseAddr(t.Addr); err != nil {
			return nil, fmt.Errorf("probe: target %d: %w", i, err)
		}
		if t.HTTPPath != "" && !strings.HasPrefix(t.HTTPPath, "/") {
			return nil, fmt.Errorf("probe: target %d http path %q must start with /", i, t.HTTPPath)
		}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	p := &Prober{cfg: cfg, done: make(chan struct{})}
	for i, t := range cfg.Targets {
		p.targets = append(p.targets, &targetState{
			target: t,
			rng:    rand.New(rand.NewPCG(seed, uint64(i)+1)),
		})
	}
	return p, nil
}

// Start launches the probe goroutines. Safe to call once.
func (p *Prober) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started || p.closed {
		return
	}
	p.started = true
	for i, ts := range p.targets {
		if ts.target.Addr == "" {
			continue
		}
		p.wg.Add(1)
		go p.run(i, ts)
	}
}

// Close stops all probing. Idempotent; blocks until the goroutines
// unwind.
func (p *Prober) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.done)
	p.mu.Unlock()
	p.wg.Wait()
	return nil
}

// Down reports the prober's current standing for a target. Unprobed
// slots (empty Addr, out of range) are always up.
func (p *Prober) Down(target int) bool {
	if target < 0 || target >= len(p.targets) {
		return false
	}
	return p.targets[target].down.Load()
}

// NumTargets returns the number of configured slots.
func (p *Prober) NumTargets() int { return len(p.targets) }

// Stats snapshots every target's counters.
func (p *Prober) Stats() []TargetStats {
	out := make([]TargetStats, len(p.targets))
	for i, ts := range p.targets {
		out[i] = TargetStats{
			Addr:        ts.target.Addr,
			Probes:      ts.probes.Load(),
			Failures:    ts.failures.Load(),
			Transitions: ts.transitions.Load(),
			Down:        ts.down.Load(),
		}
	}
	return out
}

// run is the per-target probe loop. The first probe fires after a
// random fraction of the interval so a fleet of targets doesn't
// thundering-herd the backends in lockstep.
func (p *Prober) run(idx int, ts *targetState) {
	defer p.wg.Done()
	timer := time.NewTimer(time.Duration(ts.rng.Float64() * float64(p.cfg.Interval)))
	defer timer.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-timer.C:
		}
		p.probeOnce(idx, ts)
		timer.Reset(p.nextInterval(ts))
	}
}

// nextInterval draws interval*(1 ± jitter/2) from the target's stream.
func (p *Prober) nextInterval(ts *targetState) time.Duration {
	iv := float64(p.cfg.Interval)
	if j := p.cfg.Jitter; j > 0 {
		iv *= 1 + j*(ts.rng.Float64()-0.5)
	}
	return time.Duration(iv)
}

func (p *Prober) probeOnce(idx int, ts *targetState) {
	ts.probes.Add(1)
	err := p.check(ts.target)
	if err != nil {
		ts.failures.Add(1)
		ts.consecFail++
		ts.consecOK = 0
		if ts.consecFail == p.cfg.FailN && !ts.down.Load() {
			ts.down.Store(true)
			ts.transitions.Add(1)
			p.cfg.Logger.Warn("probe target down",
				"target", idx, "addr", ts.target.Addr, "consecutive_failures", ts.consecFail, "err", err)
			if p.cfg.OnTransition != nil {
				p.cfg.OnTransition(idx, true)
			}
		}
		return
	}
	ts.consecOK++
	ts.consecFail = 0
	if ts.consecOK == p.cfg.RiseM && ts.down.Load() {
		ts.down.Store(false)
		ts.transitions.Add(1)
		p.cfg.Logger.Info("probe target up",
			"target", idx, "addr", ts.target.Addr, "consecutive_successes", ts.consecOK)
		if p.cfg.OnTransition != nil {
			p.cfg.OnTransition(idx, false)
		}
	}
}

// check performs one probe: a TCP connect, plus a shallow HTTP GET
// when the target has a path configured.
func (p *Prober) check(t Target) error {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.Timeout)
	defer cancel()
	conn, err := p.cfg.Dialer(ctx, t.Addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if t.HTTPPath == "" {
		return nil
	}
	deadline, _ := ctx.Deadline()
	conn.SetDeadline(deadline) //nolint:errcheck // best effort
	host := t.Addr[:strings.LastIndexByte(t.Addr, ':')]
	req := fmt.Sprintf("GET %s HTTP/1.1\r\nHost: %s\r\nUser-Agent: dnslb-probe\r\nConnection: close\r\n\r\n", t.HTTPPath, host)
	if _, err := conn.Write([]byte(req)); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	status, err := bufio.NewReaderSize(conn, 512).ReadString('\n')
	if err != nil {
		return fmt.Errorf("read status: %w", err)
	}
	return checkStatusLine(status)
}

// checkStatusLine accepts "HTTP/1.x NNN ..." with NNN in 200–399.
func checkStatusLine(line string) error {
	line = strings.TrimRight(line, "\r\n")
	fields := strings.Fields(line)
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "HTTP/") {
		return fmt.Errorf("malformed status line %q", line)
	}
	code := fields[1]
	if len(code) != 3 || code[0] < '2' || code[0] > '3' {
		return fmt.Errorf("unhealthy status %q", line)
	}
	for i := 1; i < 3; i++ {
		if code[i] < '0' || code[i] > '9' {
			return fmt.Errorf("malformed status code %q", code)
		}
	}
	return nil
}
