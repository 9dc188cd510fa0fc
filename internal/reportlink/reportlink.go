// Package reportlink is the client side of the DNS server's report
// socket (internal/dnsserver, report.go): one persistent TCP connection
// that carries one line out and one "OK[ payload]" or "ERR <msg>" reply
// back at a time. The socket has two clients, a backend's load agent
// (internal/backend) and a replica's peer links (internal/replication),
// and both talk through a Link, so they share one dial, one backoff
// ladder and one set of deadlines.
package reportlink

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"strings"
	"sync/atomic"
	"time"

	"dnslb/internal/sock"
)

const (
	// backoffMin and backoffMax bound the redial ladder: each error
	// doubles the wait from backoffMin up to backoffMax, and every wait
	// is jittered by 0.5–1.5× so a restarted DNS server is not redialed
	// by all its clients in the same instant.
	backoffMin = 200 * time.Millisecond
	backoffMax = 30 * time.Second
	// timeout bounds the dial and each exchange (write plus reply).
	timeout = 3 * time.Second
)

// Link is one client connection to a report socket. It dials lazily on
// the first Exchange and redials after any error, under the backoff
// ladder; a successful exchange resets the ladder. A Link is used by one
// goroutine at a time; Up and Errors may be read from any.
type Link struct {
	addr  string
	hello func(exchange func(line string) (string, error)) error

	conn    *sock.Conn
	rd      *bufio.Reader
	backoff time.Duration // current rung of the ladder; 0 after a success
	next    time.Time     // no dial before this instant

	up   atomic.Bool
	errs atomic.Uint64
}

// New returns a link to the report socket at addr, an IP literal and a
// port (sock.ParseAddr). hello, when not nil, runs on every new
// connection before the caller's line, exchanging lines of its own
// through the function it is given; an error from it fails the dial.
func New(addr string, hello func(exchange func(line string) (string, error)) error) *Link {
	return &Link{addr: addr, hello: hello}
}

// Exchange writes line and returns the payload of the reply ("" for a
// bare "OK"), connecting first if the link is down. An "ERR" reply is
// an error. Any error drops the connection and moves the link one rung
// up its backoff ladder; a successful exchange resets the ladder.
func (l *Link) Exchange(line string) (string, error) {
	if err := l.Connect(); err != nil {
		return "", err
	}
	payload, err := l.exchange(line)
	if err != nil {
		return "", l.fail(err)
	}
	l.backoff, l.next = 0, time.Time{}
	return payload, nil
}

// Connect makes sure the link is up: when it is down it dials and runs
// the hello, unless it is still waiting out a rung of its backoff
// ladder, in which case it fails at once without dialing.
func (l *Link) Connect() error {
	if l.conn != nil {
		return nil
	}
	if wait := time.Until(l.next); wait > 0 {
		return fmt.Errorf("reportlink: %s down, next dial in %v", l.addr, wait.Round(time.Millisecond))
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	conn, err := sock.Dial(ctx, l.addr)
	cancel()
	if err != nil {
		return l.fail(err)
	}
	l.conn, l.rd = conn, bufio.NewReader(conn)
	if l.hello != nil {
		if err := l.hello(l.exchange); err != nil {
			return l.fail(fmt.Errorf("reportlink: hello: %w", err))
		}
	}
	l.up.Store(true)
	return nil
}

// exchange is one round trip on the current connection.
func (l *Link) exchange(line string) (string, error) {
	if err := l.conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return "", err
	}
	if _, err := io.WriteString(l.conn, line+"\n"); err != nil {
		return "", err
	}
	reply, err := l.rd.ReadString('\n')
	if err != nil {
		return "", err
	}
	reply = strings.TrimSpace(reply)
	if status, payload, _ := strings.Cut(reply, " "); status == "OK" {
		return payload, nil
	}
	verb, _, _ := strings.Cut(line, " ")
	return "", fmt.Errorf("reportlink: %s rejected: %q", verb, reply)
}

// fail counts err, drops the connection and schedules the next dial one
// rung up the ladder.
func (l *Link) fail(err error) error {
	l.errs.Add(1)
	l.Close()
	if l.backoff == 0 {
		l.backoff = backoffMin
	} else {
		l.backoff = min(2*l.backoff, backoffMax)
	}
	l.next = time.Now().Add(time.Duration(float64(l.backoff) * (0.5 + rand.Float64())))
	return err
}

// Close drops the connection without touching the backoff; a later
// Exchange dials again.
func (l *Link) Close() {
	if l.conn != nil {
		_ = l.conn.Close()
		l.conn, l.rd = nil, nil
	}
	l.up.Store(false)
}

// Up reports whether the link holds an established connection.
func (l *Link) Up() bool { return l.up.Load() }

// Errors returns how many dials, hellos and exchanges have failed.
func (l *Link) Errors() uint64 { return l.errs.Load() }

// Addr returns the report socket's address.
func (l *Link) Addr() string { return l.addr }
