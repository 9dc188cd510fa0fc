package dnsserver

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/netip"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dnslb/internal/dnswire"
	"dnslb/internal/sock"
)

// testServerMaxTCP builds and starts a server with a tiny connection cap
// on each stream listener.
func testServerMaxTCP(t *testing.T, maxConns int) *Server {
	t.Helper()
	srv, _ := testServerCfg(t, "RR", func(cfg *Config) { cfg.MaxTCPConns = maxConns })
	return srv
}

func testQueryWire(t *testing.T) []byte {
	t.Helper()
	wire, err := (&dnswire.Message{
		Header: dnswire.Header{ID: 7, RecursionDesired: true},
		Questions: []dnswire.Question{
			{Name: "www.site.example", Type: dnswire.TypeA, Class: dnswire.ClassIN},
		},
	}).Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// frameTCP prefixes wire with the 2-byte big-endian length.
func frameTCP(wire []byte) []byte {
	return append([]byte{byte(len(wire) >> 8), byte(len(wire))}, wire...)
}

// readTCPResponse reads one length-prefixed response.
func readTCPResponse(conn net.Conn) ([]byte, error) {
	var lenBuf [2]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		return nil, err
	}
	n := int(lenBuf[0])<<8 | int(lenBuf[1])
	resp := make([]byte, n)
	if _, err := io.ReadFull(conn, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// TestTCPRejectsBadLengthPrefix: zero-length and oversized length
// prefixes cut the connection before any payload is read.
func TestTCPRejectsBadLengthPrefix(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)
	for _, tc := range []struct {
		name   string
		prefix [2]byte
	}{
		{"zero", [2]byte{0, 0}},
		{"oversized", [2]byte{0xff, 0xff}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.prefix[:]); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			var one [1]byte
			if _, err := conn.Read(one[:]); err != io.EOF {
				t.Fatalf("read after bad prefix = %v, want EOF (connection cut)", err)
			}
		})
	}

	// A well-formed query on a fresh connection still works.
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frameTCP(testQueryWire(t))); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := readTCPResponse(conn)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := dnswire.Unpack(resp)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Header.RCode != dnswire.RCodeNoError || len(msg.Answers) == 0 {
		t.Fatalf("rcode=%v answers=%d, want NOERROR with answers", msg.Header.RCode, len(msg.Answers))
	}
}

// TestTCPConnCap: with a stream listener's cap filled the accept loop
// pauses — a third client's request sits unanswered until a slot frees,
// then is served (never refused). The cap is each listener's own: the
// report socket at its cap leaves DNS-over-TCP unaffected.
func TestTCPConnCap(t *testing.T) {
	tcpReply := func(conn net.Conn) error {
		resp, err := readTCPResponse(conn)
		if err != nil {
			return err
		}
		msg, err := dnswire.Unpack(resp)
		if err == nil && msg.Header.RCode != dnswire.RCodeNoError {
			err = fmt.Errorf("rcode = %v, want NOERROR", msg.Header.RCode)
		}
		return err
	}
	for _, in := range []struct {
		name  string
		addr  func(*Server) netip.AddrPort
		ask   []byte
		reply func(net.Conn) error // reads one reply
	}{
		{"tcp", (*Server).Addr, frameTCP(testQueryWire(t)), tcpReply},
		{"report", (*Server).ReportAddr, []byte("ALIVE 0\n"), func(conn net.Conn) error {
			line, err := bufio.NewReader(conn).ReadString('\n')
			if err == nil && line != "OK\n" {
				err = fmt.Errorf("reply = %q, want OK", line)
			}
			return err
		}},
	} {
		t.Run(in.name, func(t *testing.T) {
			srv := testServerMaxTCP(t, 2)
			dial := func(addr netip.AddrPort) net.Conn {
				t.Helper()
				conn, err := net.Dial("tcp", addr.String())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = conn.Close() })
				return conn
			}
			replyWithin := func(conn net.Conn, d time.Duration, reply func(net.Conn) error) error {
				_ = conn.SetReadDeadline(time.Now().Add(d))
				return reply(conn)
			}

			// Two served connections occupy both slots.
			var held [2]net.Conn
			for i := range held {
				held[i] = dial(in.addr(srv))
				if _, err := held[i].Write(in.ask); err != nil {
					t.Fatal(err)
				}
				if err := replyWithin(held[i], 2*time.Second, in.reply); err != nil {
					t.Fatalf("connection %d under the cap not served: %v", i, err)
				}
			}

			// The third connection completes its handshake in the kernel's
			// backlog but is not accepted; its request goes unanswered.
			conn3 := dial(in.addr(srv))
			if _, err := conn3.Write(in.ask); err != nil {
				t.Fatal(err)
			}
			if err := replyWithin(conn3, 300*time.Millisecond, in.reply); err == nil {
				t.Fatal("request served while the connection cap was full")
			}
			if in.name == "tcp" {
				if got := srv.tcpConns.Load(); got != 2 {
					t.Fatalf("TCPConns = %d over the cap of 2", got)
				}
			} else {
				other := dial(srv.Addr())
				if _, err := other.Write(frameTCP(testQueryWire(t))); err != nil {
					t.Fatal(err)
				}
				if err := replyWithin(other, 2*time.Second, tcpReply); err != nil {
					t.Fatalf("DNS-over-TCP held up by the report socket's cap: %v", err)
				}
			}

			// Freeing one slot lets the queued connection through.
			held[0].Close()
			if err := replyWithin(conn3, 3*time.Second, in.reply); err != nil {
				t.Fatalf("queued connection never served after a slot freed: %v", err)
			}
		})
	}
}

// stubListener is a listener whose Accept fails a set number of times and
// then blocks until the server stops.
type stubListener struct {
	fails  atomic.Int32 // Accept calls still to fail; negative once one blocks
	closed chan struct{}
}

func (l *stubListener) Accept() (*sock.Conn, error) {
	if l.fails.Add(-1) >= 0 {
		return nil, errors.New("accept: too many open files")
	}
	<-l.closed
	return nil, net.ErrClosed
}

// TestAcceptLoopBacksOff: a persistent accept error (EMFILE) is logged
// and slept on, nextBackoff's schedule, instead of spun on; and the loop
// still ends with Shutdown. One loop serves TCP, DoH and the report
// socket, so this holds for all three.
func TestAcceptLoopBacksOff(t *testing.T) {
	const fails = 5
	var want time.Duration
	for i, backoff := 0, time.Duration(0); i < fails; i++ {
		var sleep time.Duration
		sleep, backoff = nextBackoff(backoff)
		want += sleep
	}
	var log bytes.Buffer // written by the accept loop only, read after it ended
	base, _ := testServerNoStart(t, "RR")
	cfg := base.cfg
	cfg.Logger = slog.New(slog.NewTextHandler(&log, nil))
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln := &stubListener{closed: srv.closed}
	ln.fails.Store(fails)
	srv.wg.Add(1)
	start := time.Now()
	go srv.acceptLoop(ln.Accept, func(*sock.Conn) {})
	waitCond(t, 5*time.Second, func() bool { return ln.fails.Load() < 0 }, "accept loop never got past the failures")
	if got := time.Since(start); got < want {
		t.Errorf("%d failed accepts took %v, want at least the backoff's %v", fails, got, want)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with the loop blocked in Accept: %v", err)
	}
	if got := strings.Count(log.String(), "accept failed"); got != fails {
		t.Errorf("%d failures logged, want %d:\n%s", got, fails, log.String())
	}
}
