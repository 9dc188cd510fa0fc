package reportlink

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeSocket is a minimal report socket: it records every line and
// answers "ERR rejected" to lines starting with BAD, "OK 7" to JOIN
// and "OK" otherwise.
type fakeSocket struct {
	ln net.Listener

	mu    sync.Mutex
	lines []string
	conns int
}

func newFakeSocket(t *testing.T) *fakeSocket {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeSocket{ln: ln}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			f.mu.Lock()
			f.conns++
			f.mu.Unlock()
			go f.serve(conn)
		}
	}()
	return f
}

func (f *fakeSocket) serve(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		f.mu.Lock()
		f.lines = append(f.lines, sc.Text())
		f.mu.Unlock()
		reply := "OK\n"
		switch {
		case strings.HasPrefix(sc.Text(), "BAD"):
			reply = "ERR rejected\n"
		case strings.HasPrefix(sc.Text(), "JOIN"):
			reply = "OK 7\n"
		}
		if _, err := conn.Write([]byte(reply)); err != nil {
			return
		}
	}
}

func (f *fakeSocket) seen() (lines []string, conns int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.lines...), f.conns
}

// deadAddr returns a loopback address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

func TestBackoffDoublesAndJitters(t *testing.T) {
	l := New(deadAddr(t), nil)
	want := []time.Duration{backoffMin}
	for want[len(want)-1] < backoffMax {
		want = append(want, min(2*want[len(want)-1], backoffMax))
	}
	want = append(want, backoffMax) // stays capped
	for i, w := range want {
		_ = l.fail(errors.New("test"))
		backoff, delay := l.backoff, time.Until(l.next)
		if backoff != w {
			t.Fatalf("failure %d: backoff = %v, want %v", i, backoff, w)
		}
		lo := time.Duration(float64(w) * 0.4) // slack for elapsed time
		hi := time.Duration(float64(w) * 1.5)
		if delay < lo || delay > hi {
			t.Fatalf("failure %d: jittered delay %v outside [%v,%v]", i, delay, lo, hi)
		}
	}
	if got := l.Errors(); got != uint64(len(want)) {
		t.Errorf("Errors = %d, want %d", got, len(want))
	}
}

func TestBackoffGatesDialing(t *testing.T) {
	// A failed dial arms the backoff; the next exchange inside the window
	// is refused locally without a second dial, so no error is counted.
	l := New(deadAddr(t), nil)
	if _, err := l.Exchange("ROLL 8"); err == nil {
		t.Fatal("exchange with a dead address should fail")
	}
	if l.Errors() != 1 || l.Up() {
		t.Fatalf("after a failed dial: Errors = %d, Up = %v", l.Errors(), l.Up())
	}
	_, err := l.Exchange("ROLL 8")
	if err == nil || !strings.Contains(err.Error(), "next dial") {
		t.Errorf("in-backoff exchange error = %v, want local backoff refusal", err)
	}
	if err := l.Connect(); err == nil || l.Errors() != 1 {
		t.Errorf("in-backoff Connect = %v with %d errors, want a refusal and no dial", err, l.Errors())
	}
}

func TestSuccessfulExchangeResetsBackoff(t *testing.T) {
	// A successful exchange on the established connection — not just a
	// successful dial — clears the backoff, so the next outage starts the
	// ladder from the minimum instead of inheriting a stale ceiling.
	f := newFakeSocket(t)
	l := New(f.ln.Addr().String(), nil)
	t.Cleanup(l.Close)
	if _, err := l.Exchange("ROLL 8"); err != nil {
		t.Fatal(err)
	}
	l.backoff = time.Hour // an old outage whose backoff never got cleared
	if _, err := l.Exchange("ROLL 8"); err != nil {
		t.Fatal(err)
	}
	if l.backoff != 0 || !l.next.IsZero() {
		t.Errorf("successful exchange left backoff %v / next %v, want cleared", l.backoff, l.next)
	}
}

func TestRejectedExchangesClimbTheLadder(t *testing.T) {
	// A socket that accepts every connection but rejects every line is
	// backed off like a dead one: a successful dial does not reset the
	// ladder, only a successful exchange does.
	f := newFakeSocket(t)
	l := New(f.ln.Addr().String(), nil)
	for i, want := range []time.Duration{backoffMin, 2 * backoffMin, 4 * backoffMin} {
		l.next = time.Time{} // skip the backoff wait
		if _, err := l.Exchange("BAD delta"); err == nil {
			t.Fatalf("exchange %d: rejected line gave no error", i)
		}
		if l.backoff != want {
			t.Fatalf("exchange %d: backoff = %v, want %v", i, l.backoff, want)
		}
	}
	if _, conns := f.seen(); conns != 3 {
		t.Errorf("socket saw %d connections, want one per exchange", conns)
	}
}

func TestHelloRunsOnEveryConnection(t *testing.T) {
	f := newFakeSocket(t)
	hellos := 0
	l := New(f.ln.Addr().String(), func(exchange func(string) (string, error)) error {
		hellos++
		_, err := exchange("HELLO")
		return err
	})
	t.Cleanup(l.Close)
	for _, line := range []string{"A", "B"} {
		if _, err := l.Exchange(line); err != nil {
			t.Fatal(err)
		}
	}
	l.Close() // the next exchange reconnects
	if _, err := l.Exchange("C"); err != nil {
		t.Fatal(err)
	}
	lines, conns := f.seen()
	if want := "HELLO A B HELLO C"; strings.Join(lines, " ") != want || conns != 2 || hellos != 2 {
		t.Errorf("socket saw %q over %d connections after %d hellos, want %q over 2", lines, conns, hellos, want)
	}
}

func TestFailedHelloIsAFailedDial(t *testing.T) {
	f := newFakeSocket(t)
	l := New(f.ln.Addr().String(), func(exchange func(string) (string, error)) error {
		_, err := exchange("BAD hello")
		return err
	})
	if _, err := l.Exchange("ROLL 8"); err == nil {
		t.Fatal("exchange after a rejected hello should fail")
	}
	if armed := !l.next.IsZero(); l.Up() || l.Errors() != 1 || !armed {
		t.Errorf("after a failed hello: Up = %v, Errors = %d, backoff armed = %v", l.Up(), l.Errors(), armed)
	}
	if lines, _ := f.seen(); len(lines) != 1 {
		t.Errorf("socket saw %q, want only the hello", lines)
	}
}

func TestErrReplyDropsConnection(t *testing.T) {
	f := newFakeSocket(t)
	l := New(f.ln.Addr().String(), nil)
	t.Cleanup(l.Close)
	if payload, err := l.Exchange("ALIVE 0"); err != nil || payload != "" || !l.Up() {
		t.Fatalf("OK exchange: payload %q, err %v, Up %v", payload, err, l.Up())
	}
	if payload, err := l.Exchange("JOIN 10.0.0.9 100"); err != nil || payload != "7" {
		t.Fatalf("OK 7 exchange: payload %q, err %v", payload, err)
	}
	_, err := l.Exchange("BAD line")
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("ERR reply gave error %v", err)
	}
	if l.Up() || l.Errors() != 1 {
		t.Fatalf("after an ERR reply: Up = %v, Errors = %d", l.Up(), l.Errors())
	}
	l.next = time.Time{} // skip the backoff wait
	if _, err := l.Exchange("ROLL 8"); err != nil {
		t.Fatal(err)
	}
	if _, conns := f.seen(); conns != 2 {
		t.Errorf("socket saw %d connections, want a redial after the ERR", conns)
	}
}
