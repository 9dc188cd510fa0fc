//go:build linux

package dnsserver

import (
	"context"
	"errors"
	"io"
	"net"
	"net/netip"
	"os"
	"syscall"
	"testing"
	"time"
)

// TestRestartRobustness: a server that fails to come up is what ends a
// benchmark run or a rolling restart, so Start must bind where an
// operator restarts it and hold up over many restarts.
//
//   - Every stream listener binds on a port that still holds a connection
//     in TIME_WAIT, as one does after the server it replaces closed its
//     side first: each socket needs SO_REUSEADDR.
//   - 200 cycles of Start, one UDP and one TCP answer, and Shutdown, on
//     ephemeral ports with every listener configured, end without an
//     error and leave no goroutine and no descriptor behind.
func TestRestartRobustness(t *testing.T) {
	base, _ := testServerNoStart(t, "RR")
	t.Run("time-wait", func(t *testing.T) {
		var ports [5]string
		for i := range ports {
			ports[i] = timeWaitPort(t)
		}
		cfg := base.cfg
		cfg.Addr, cfg.ReportAddr, cfg.HTTPAddr, cfg.MetricsAddr, cfg.PprofAddr = ports[0], ports[1], ports[2], ports[3], ports[4]
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatalf("Start beside TIME_WAIT connections: %v", err)
		}
		restartCycle(t, srv)
	})
	t.Run("cycles", func(t *testing.T) {
		cfg := base.cfg
		cfg.ReportAddr, cfg.HTTPAddr, cfg.MetricsAddr, cfg.PprofAddr = "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"
		cycle := func() {
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}
			restartCycle(t, srv)
		}
		cycle() // the runtime's own descriptors (the poller's) exist from here on
		fds := openFDs(t)
		checkGoroutines(t, func(t *testing.T) {
			for i := 0; i < 200 && !t.Failed(); i++ {
				cycle()
			}
		})
		if after := openFDs(t); after > fds {
			t.Errorf("%d descriptors open after 200 restarts, %d before", after, fds)
		}
	})
}

// restartCycle asks srv, started, one question over UDP and one over TCP
// and shuts it down.
func restartCycle(t *testing.T, srv *Server) {
	t.Helper()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()
	if _, err := resolverFor(t, srv).LookupA(context.Background(), "www.site.example"); err != nil {
		t.Fatalf("UDP: %v", err)
	}
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(frameTCP(testQueryWire(t))); err != nil {
		t.Fatal(err)
	}
	if _, err := readTCPResponse(conn); err != nil {
		t.Fatalf("TCP: %v", err)
	}
}

// timeWaitPort returns a loopback address whose TCP port holds a
// connection in TIME_WAIT and nothing else: the accepting end closed
// first. It waits until a bind without SO_REUSEADDR is refused there, so
// the connection is known to be in that state. A kernel whose TIME_WAIT
// table is full (net.ipv4.tcp_max_tw_buckets, after a run that opened
// tens of thousands of connections) closes the socket at once instead,
// and then there is nothing to test.
func timeWaitPort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	_ = ln.Close()
	_ = server.Close()
	_, _ = io.Copy(io.Discard, client) // until the server's FIN
	_ = client.Close()
	ap := netip.MustParseAddrPort(ln.Addr().String())
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
		if err != nil {
			t.Fatal(err)
		}
		err = syscall.Bind(fd, &syscall.SockaddrInet4{Port: int(ap.Port()), Addr: ap.Addr().As4()})
		_ = syscall.Close(fd)
		if errors.Is(err, syscall.EADDRINUSE) {
			return ap.String()
		}
		if time.Since(start) > 2*time.Second {
			t.Skipf("no connection in TIME_WAIT on %v (a plain bind returns %v): is the TIME_WAIT table full?", ap, err)
		}
	}
}

// openFDs counts the process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd:", err)
	}
	return len(ents)
}
