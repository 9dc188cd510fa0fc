package probe

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// fakeDialer lets tests script per-target probe outcomes without real
// sockets or real time.
type fakeDialer struct {
	mu   sync.Mutex
	fail map[string]bool // addr -> probe should fail
}

func (d *fakeDialer) setFail(addr string, fail bool) {
	d.mu.Lock()
	d.fail[addr] = fail
	d.mu.Unlock()
}

func (d *fakeDialer) dial(ctx context.Context, addr string) (Conn, error) {
	d.mu.Lock()
	fail := d.fail[addr]
	d.mu.Unlock()
	if fail {
		return nil, errors.New("scripted failure")
	}
	a, b := net.Pipe()
	go func() {
		// Drain and discard so HTTP writes never block, then hang up.
		buf := make([]byte, 1024)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	return a, nil
}

type transition struct {
	target int
	down   bool
}

func collectTransitions() (func(int, bool), func() []transition) {
	var mu sync.Mutex
	var got []transition
	record := func(t int, down bool) {
		mu.Lock()
		got = append(got, transition{t, down})
		mu.Unlock()
	}
	snapshot := func() []transition {
		mu.Lock()
		defer mu.Unlock()
		return append([]transition(nil), got...)
	}
	return record, snapshot
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

func TestProberFailNRiseM(t *testing.T) {
	d := &fakeDialer{fail: map[string]bool{}}
	record, snapshot := collectTransitions()
	p, err := New(Config{
		Targets:      []Target{{Addr: "10.0.0.1:80"}, {Addr: "10.0.0.2:80"}},
		Interval:     10 * time.Millisecond,
		Timeout:      5 * time.Millisecond,
		FailN:        3,
		RiseM:        2,
		Seed:         1,
		OnTransition: record,
		Dialer:       d.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Close()

	// Both healthy: no transitions even after many probes.
	waitFor(t, 2*time.Second, func() bool {
		st := p.Stats()
		return st[0].Probes >= 5 && st[1].Probes >= 5
	}, "probes not running")
	if got := snapshot(); len(got) != 0 {
		t.Fatalf("healthy targets produced transitions: %v", got)
	}

	// Kill target 0: down after exactly FailN consecutive failures.
	d.setFail("10.0.0.1:80", true)
	waitFor(t, 2*time.Second, func() bool { return p.Down(0) }, "target 0 never declared down")
	if p.Down(1) {
		t.Fatal("target 1 wrongly declared down")
	}
	st := p.Stats()
	if st[0].Failures < uint64(3) {
		t.Fatalf("down with only %d failures, want >= FailN=3", st[0].Failures)
	}

	// Revive: up after RiseM consecutive successes. probeOnce stores
	// down=false before it counts and reports the flip, so wait for the
	// report too before reading the log and the counter.
	d.setFail("10.0.0.1:80", false)
	waitFor(t, 2*time.Second, func() bool {
		return !p.Down(0) && len(snapshot()) >= 2 && p.Stats()[0].Transitions >= 2
	}, "target 0 never revived")

	got := snapshot()
	if len(got) != 2 || got[0] != (transition{0, true}) || got[1] != (transition{0, false}) {
		t.Fatalf("transitions = %v, want [{0 true} {0 false}]", got)
	}
	if tr := p.Stats()[0].Transitions; tr != 2 {
		t.Fatalf("transition count = %d, want 2", tr)
	}
}

func TestProberSingleBlipNoTransition(t *testing.T) {
	d := &fakeDialer{fail: map[string]bool{}}
	record, snapshot := collectTransitions()
	var mu sync.Mutex
	failuresLeft := 2 // fewer than FailN=3: hysteresis must absorb it
	dialer := func(ctx context.Context, addr string) (Conn, error) {
		mu.Lock()
		blip := failuresLeft > 0
		if blip {
			failuresLeft--
		}
		mu.Unlock()
		if blip {
			return nil, errors.New("blip")
		}
		return d.dial(ctx, addr)
	}
	p, err := New(Config{
		Targets:      []Target{{Addr: "10.0.0.1:80"}},
		Interval:     10 * time.Millisecond,
		FailN:        3,
		RiseM:        2,
		Seed:         1,
		OnTransition: record,
		Dialer:       dialer,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Close()
	waitFor(t, 2*time.Second, func() bool { return p.Stats()[0].Probes >= 6 }, "probes not running")
	if p.Down(0) {
		t.Fatal("two-failure blip (< FailN) flipped standing")
	}
	if got := snapshot(); len(got) != 0 {
		t.Fatalf("blip produced transitions: %v", got)
	}
}

func TestProberEmptyAddrSkipped(t *testing.T) {
	p, err := New(Config{
		Targets:  []Target{{Addr: ""}, {Addr: "10.0.0.2:80"}},
		Interval: 10 * time.Millisecond,
		Seed:     1,
		Dialer: func(ctx context.Context, addr string) (Conn, error) {
			return nil, errors.New("always down")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Close()
	waitFor(t, 2*time.Second, func() bool { return p.Down(1) }, "probed target never down")
	if p.Down(0) {
		t.Fatal("unprobed slot reported down")
	}
	if st := p.Stats(); st[0].Probes != 0 {
		t.Fatalf("unprobed slot recorded %d probes", st[0].Probes)
	}
	// Out-of-range slots are up, not a panic.
	if p.Down(-1) || p.Down(99) {
		t.Fatal("out-of-range slot reported down")
	}
}

func TestProberRealTCPTarget(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	p, err := New(Config{
		Targets:  []Target{{Addr: ln.Addr().String()}},
		Interval: 20 * time.Millisecond,
		Timeout:  200 * time.Millisecond,
		FailN:    2,
		RiseM:    1,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Close()
	waitFor(t, 2*time.Second, func() bool { return p.Stats()[0].Probes >= 3 }, "probes not running")
	if p.Down(0) {
		t.Fatal("live listener declared down")
	}
	ln.Close()
	waitFor(t, 3*time.Second, func() bool { return p.Down(0) }, "closed listener never declared down")
}

func TestProberHTTPProbe(t *testing.T) {
	respond := func(ln net.Listener, status string) {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 1024)
				c.SetReadDeadline(time.Now().Add(time.Second))
				c.Read(buf) //nolint:errcheck // shallow probe server
				c.Write([]byte("HTTP/1.1 " + status + "\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"))
			}(c)
		}
	}
	healthy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	go respond(healthy, "200 OK")
	sick, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sick.Close()
	go respond(sick, "503 Service Unavailable")

	p, err := New(Config{
		Targets: []Target{
			{Addr: healthy.Addr().String(), HTTPPath: "/healthz"},
			{Addr: sick.Addr().String(), HTTPPath: "/healthz"},
		},
		Interval: 20 * time.Millisecond,
		Timeout:  300 * time.Millisecond,
		FailN:    2,
		RiseM:    1,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Close()
	waitFor(t, 3*time.Second, func() bool { return p.Down(1) }, "503 target never declared down")
	if p.Down(0) {
		t.Fatal("200 target declared down")
	}
}

func TestCheckStatusLine(t *testing.T) {
	for _, ok := range []string{
		"HTTP/1.1 200 OK\r\n", "HTTP/1.0 204 No Content\n", "HTTP/1.1 301 Moved Permanently",
	} {
		if err := checkStatusLine(ok); err != nil {
			t.Errorf("checkStatusLine(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{
		"HTTP/1.1 500 Boom", "HTTP/1.1 404 Not Found", "HTTP/1.1 1xx", "garbage",
		"HTTP/1.1", "SMTP 200 OK", "HTTP/1.1 99 Short",
	} {
		if err := checkStatusLine(bad); err == nil {
			t.Errorf("checkStatusLine(%q) accepted", bad)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no targets accepted")
	}
	if _, err := New(Config{Targets: []Target{{Addr: "no-port"}}}); err == nil {
		t.Fatal("addr without port accepted")
	}
	if _, err := New(Config{Targets: []Target{{Addr: "1.2.3.4:80", HTTPPath: "healthz"}}}); err == nil {
		t.Fatal("relative http path accepted")
	}
	p, err := New(Config{Targets: []Target{{Addr: "1.2.3.4:80"}}})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumTargets() != 1 {
		t.Fatalf("NumTargets = %d", p.NumTargets())
	}
	// Close before Start, and double Close, are safe.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p.Start() // after Close: no-op
}
