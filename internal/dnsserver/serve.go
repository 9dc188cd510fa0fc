package dnsserver

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/netip"
	"sync"
	"time"

	"dnslb/internal/dnswire"
	"dnslb/internal/engine"
)

// Serve loops and lifecycle: socket binding, the parallel UDP
// reader/responder workers, the TCP accept loop and its buffered
// per-connection loops, the optional DoH front end, and the stop
// path (graceful Shutdown; Close is Shutdown without the patience).

// Start binds the UDP socket and TCP listener and begins serving with
// the configured number of parallel UDP workers.
//
// DNS needs the same port on both transports. With an explicit port
// that either binds or fails; with an ephemeral port (":0") the kernel
// picks the UDP port without consulting the TCP namespace, so the
// paired TCP bind can collide with an unrelated TCP socket (commonly
// one in TIME_WAIT) — in that case a fresh UDP port is drawn and the
// pair is retried.
func (s *Server) Start() error {
	uaddr, err := net.ResolveUDPAddr("udp", s.addrOrDefault())
	if err != nil {
		return fmt.Errorf("dnsserver: resolve: %w", err)
	}
	const pairAttempts = 16
	for attempt := 0; ; attempt++ {
		s.udp, err = net.ListenUDP("udp", uaddr)
		if err != nil {
			return fmt.Errorf("dnsserver: listen udp: %w", err)
		}
		s.tcp, err = net.Listen("tcp", s.udp.LocalAddr().String())
		if err == nil {
			break
		}
		_ = s.udp.Close()
		if uaddr.Port != 0 || attempt == pairAttempts-1 {
			return fmt.Errorf("dnsserver: listen tcp: %w", err)
		}
	}
	if s.httpAddr != "" {
		ln, err := net.Listen("tcp", s.httpAddr)
		if err != nil {
			_ = s.udp.Close()
			_ = s.tcp.Close()
			return fmt.Errorf("dnsserver: listen http: %w", err)
		}
		s.httpLn = ln
		s.httpSrv = &http.Server{
			Handler:           s.dohMux(),
			ReadHeaderTimeout: 5 * time.Second,
			IdleTimeout:       tcpIdleTimeout,
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if err := s.httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				select {
				case <-s.closed:
				default:
					s.logger.Warn("http serve failed", "err", err)
				}
			}
		}()
	}
	if s.overCfg.Enabled() && s.over == nil {
		s.over = newOverloadController(s, s.overCfg)
	}
	s.wg.Add(s.udpWorkers + 1)
	for i := 0; i < s.udpWorkers; i++ {
		go s.serveUDP(i)
	}
	go s.serveTCP()
	return nil
}

// configured listen address; stored via Config at New time.
func (s *Server) addrOrDefault() string {
	if s.listenAddr == "" {
		return "127.0.0.1:0"
	}
	return s.listenAddr
}

// Addr returns the bound UDP address (valid after Start).
func (s *Server) Addr() net.Addr { return s.udp.LocalAddr() }

// HTTPAddr returns the bound DoH listener address, or nil when no HTTP
// front end is configured (valid after Start).
func (s *Server) HTTPAddr() net.Addr {
	if s.httpLn == nil {
		return nil
	}
	return s.httpLn.Addr()
}

// Close stops serving immediately and waits for the serve loops to
// exit; in-flight exchanges may be cut off. It is Shutdown with no
// patience: the context it passes has expired already.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

// Shutdown stops the server gracefully: new work is refused, but
// queries already read from the sockets are answered before the serve
// loops exit. The UDP socket stays open (writable) until every worker
// has finished its in-flight response; TCP stops accepting at once, a
// connection idle between exchanges ends at once and one in the middle
// of an exchange completes it. When ctx expires first, what remains is
// cut off, every connection closed, and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	select {
	case <-s.closed:
		return nil
	default:
	}
	close(s.closed)
	s.cancelDrainTimers()
	s.StopReplication()
	s.stopProbing()
	s.stopOverload()
	// Unblock the UDP readers without closing the socket: a worker
	// blocked in read observes the deadline error, sees closed, and
	// exits; a worker mid-response can still write it.
	if s.udp != nil {
		_ = s.udp.SetReadDeadline(time.Now())
	}
	var first error
	if s.tcp != nil {
		first = s.tcp.Close()
	}
	// The same for the TCP connections: one blocked reading its next query
	// wakes and exits, one handling a query still writes the response (the
	// write deadline is its own) and exits when it comes back to read.
	s.connsMu.Lock()
	for c := range s.conns {
		_ = c.SetReadDeadline(time.Now())
	}
	s.connsMu.Unlock()
	if s.httpSrv != nil {
		// Graceful: in-flight DoH exchanges complete; if ctx expires the
		// fallback below cuts whatever remains.
		if err := s.httpSrv.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		if first == nil {
			first = ctx.Err()
		}
		if s.httpSrv != nil {
			_ = s.httpSrv.Close()
		}
		// Closing the listener does not close accepted connections; do it
		// explicitly so the stop never waits out a TCP idle deadline.
		s.connsMu.Lock()
		for c := range s.conns {
			_ = c.Close()
		}
		s.connsMu.Unlock()
	}
	if s.udp != nil {
		_ = s.udp.Close()
	}
	<-done
	return first
}

// cancelDrainTimers stops every pending drain-completion timer; used
// on shutdown so no removal fires into a closing server.
func (s *Server) cancelDrainTimers() {
	s.reconfigMu.Lock()
	for i, t := range s.drainTimers {
		t.Stop()
		delete(s.drainTimers, i)
	}
	s.reconfigMu.Unlock()
}

// packPool recycles response buffers across queries: the UDP and DoH
// loops hand handle a pooled buffer to encode into and return it after
// the write, so encoding allocates nothing. No response outgrows the
// buffer: the largest is 564 bytes, the NXDOMAIN for a name of the
// maximum length beside a zone of the maximum length (maxZoneWire).
var packPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 2048)
		return &b
	},
}

// Read/accept error backoff: persistent socket errors (ENOBUFS, EMFILE)
// would otherwise hot-spin the serve loop and flood the log. The delay
// doubles per consecutive failure up to the cap and resets to zero on
// the first success.
const (
	errBackoffMin = time.Millisecond
	errBackoffMax = time.Second
)

// nextBackoff returns the delay to sleep after a serve-loop error and
// the successor backoff value.
func nextBackoff(cur time.Duration) (sleep, next time.Duration) {
	if cur <= 0 {
		return errBackoffMin, 2 * errBackoffMin
	}
	if cur > errBackoffMax {
		return errBackoffMax, errBackoffMax
	}
	return cur, cur * 2
}

// sleepOrClosed sleeps for d, returning early (true) when the server
// is shutting down.
func (s *Server) sleepOrClosed(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-s.closed:
		return true
	case <-t.C:
		return false
	}
}

// serveUDP is one of UDPWorkers identical reader/responder loops over
// the shared socket. The kernel distributes datagrams across blocked
// readers; each worker owns its read buffer, so the loops never touch
// shared mutable server state. When instrumented, each worker times
// its own queries and accumulates the latency histogram sum on its own
// shard (the worker index is the hint), keeping the measurement as
// contention-free as the serving.
func (s *Server) serveUDP(worker int) {
	defer s.wg.Done()
	buf := make([]byte, 65535)
	m := s.metrics
	hint := uint32(worker)
	var backoff time.Duration
	for {
		n, raddr, err := s.udp.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				s.logger.Warn("udp read failed", "err", err, "worker", worker)
				var sleep time.Duration
				sleep, backoff = nextBackoff(backoff)
				if s.sleepOrClosed(sleep) {
					return
				}
				continue
			}
		}
		backoff = 0
		var start time.Time
		if m != nil {
			start = time.Now()
		}
		bp := packPool.Get().(*[]byte)
		resp := s.handle(buf[:n], raddr.Addr(), engine.TransportUDP, dnswire.MaxUDPPayload, (*bp)[:0])
		if resp != nil {
			if _, err := s.udp.WriteToUDPAddrPort(resp, raddr); err != nil {
				s.logger.Warn("udp write failed", "err", err, "worker", worker, "raddr", raddr)
			}
		}
		packPool.Put(bp)
		if m != nil {
			m.latency.ObserveHint(hint, time.Since(start).Seconds())
		}
	}
}

// DefaultMaxTCPConns is the concurrent TCP connection cap applied when
// Config.MaxTCPConns is zero. Each connection costs one goroutine plus
// its pooled buffers (tcpBufs); 512 comfortably covers legitimate TCP
// retry traffic (truncated UDP responses) while bounding a flood.
const DefaultMaxTCPConns = 512

// TCPConns returns the number of TCP connections currently being
// served (the dnslb_dns_tcp_conns gauge).
func (s *Server) TCPConns() int64 { return s.tcpConns.Load() }

func (s *Server) serveTCP() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		// Acquire a connection slot BEFORE accepting: when the server is
		// at its cap the accept loop pauses and the kernel's SYN backlog
		// (and the clients' retries) absorb the burst. Pausing beats
		// accept-and-close — a closed connection makes the client retry
		// immediately, pausing makes it wait exactly as long as needed.
		if s.tcpSem != nil {
			select {
			case s.tcpSem <- struct{}{}:
			case <-s.closed:
				return
			}
		}
		conn, err := s.tcp.Accept()
		if err != nil {
			if s.tcpSem != nil {
				<-s.tcpSem
			}
			select {
			case <-s.closed:
				return
			default:
				s.logger.Warn("tcp accept failed", "err", err)
				var sleep time.Duration
				sleep, backoff = nextBackoff(backoff)
				if s.sleepOrClosed(sleep) {
					return
				}
				continue
			}
		}
		backoff = 0
		s.connsMu.Lock()
		s.conns[conn] = struct{}{}
		s.connsMu.Unlock()
		s.tcpConns.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				_ = conn.Close()
				s.connsMu.Lock()
				delete(s.conns, conn)
				s.connsMu.Unlock()
				s.tcpConns.Add(-1)
				if s.tcpSem != nil {
					<-s.tcpSem
				}
			}()
			s.serveTCPConn(conn)
		}()
	}
}

// tcpIdleTimeout bounds how long a TCP client may sit between
// messages, so idle or slowloris connections cannot pin goroutines.
const tcpIdleTimeout = 30 * time.Second

// maxTCPQuery bounds the accepted TCP query size. Legitimate queries
// are tiny (name + fixed sections + EDNS options); anything beyond 4
// KiB is either garbage or an attempt to make the server allocate —
// either way the connection is cut before reading the payload.
const maxTCPQuery = 4096

// tcpBufs is what one TCP connection reads, encodes and writes through:
// a reader that holds one maximal frame, a writer that batches the
// responses, and the buffer handle encodes each response into (handle
// needs a zero-length dst — the answer's compression pointer is offset
// 12 — so the ≈60 bytes are copied into the writer behind their length
// prefix). ≈10 KiB per connection, pooled so a flood of short-lived
// connections recycles the buffers instead of churning them.
type tcpBufs struct {
	br   *bufio.Reader
	bw   *bufio.Writer
	resp []byte
}

var tcpBufsPool = sync.Pool{
	New: func() any {
		return &tcpBufs{
			br:   bufio.NewReaderSize(nil, 2+maxTCPQuery),
			bw:   bufio.NewWriterSize(nil, maxTCPQuery),
			resp: make([]byte, 0, 2048),
		}
	},
}

// serveTCPConn serves one TCP connection: the UDP loop with framing.
// Each length-prefixed query (RFC 7766) is handled inline, on the frame
// as it lies in the read buffer, and its length-prefixed response is
// appended to the write buffer; the batch goes out in one write when
// the read buffer holds no further complete frame — right before the
// loop would block — or when the write buffer is full. A client that
// pipelines k queries costs about two syscalls per batch, one that asks
// one at a time costs one read and one write per query, and responses
// leave in arrival order (RFC 7766 §7 permits any; clients match on
// message ID). Nothing under handle blocks, so there is nothing to
// overlap by handing queries to other goroutines.
//
// A zero or oversized length prefix, an unanswerable message, a socket
// error and a graceful shutdown all end the loop; the responses already
// batched are flushed on every one of those paths before the caller
// closes the connection.
func (s *Server) serveTCPConn(conn net.Conn) {
	var raddr netip.Addr
	if ta, ok := conn.RemoteAddr().(*net.TCPAddr); ok {
		raddr = ta.AddrPort().Addr()
	}
	b := tcpBufsPool.Get().(*tcpBufs)
	br, bw := b.br, b.bw
	br.Reset(conn)
	bw.Reset(conn)
	// flush also arms the write deadline for a response larger than the
	// write buffer, which bw writes through right after making room.
	flush := func() bool {
		_ = conn.SetWriteDeadline(time.Now().Add(tcpIdleTimeout))
		return bw.Flush() == nil
	}
	defer func() {
		flush()
		br.Reset(nil)
		bw.Reset(nil)
		tcpBufsPool.Put(b)
	}()
	// awaited: the idle deadline for the frame at the head of the buffer
	// is running. It is set once per frame, when the loop first blocks
	// for it, so a client trickling one frame byte by byte has
	// tcpIdleTimeout for all of it, not for each byte.
	awaited := false
	for {
		// Validate the length prefix BEFORE awaiting the payload: a
		// zero-length message carries nothing answerable, and an
		// oversized one is read-and-discard work no legitimate resolver
		// ever asks for.
		need := 2
		if br.Buffered() >= 2 {
			pfx, _ := br.Peek(2)
			n := int(pfx[0])<<8 | int(pfx[1])
			if n == 0 || n > maxTCPQuery {
				return
			}
			need += n
		}
		if br.Buffered() < need {
			// About to block. Flush first, or a client that waits for an
			// answer before sending more (or whose next frame is split
			// across segments) waits out the idle timeout for a response
			// sitting in the write buffer.
			if !flush() {
				return
			}
			if !awaited {
				if err := conn.SetReadDeadline(time.Now().Add(tcpIdleTimeout)); err != nil {
					return
				}
				awaited = true
			}
			// A graceful shutdown answers what was already read but takes
			// nothing more from the socket. Checked after the deadline is
			// set: Shutdown closes the channel and then sets the deadline to
			// now, so either this sees it closed or that deadline outlasts
			// the one above and ends the read below.
			select {
			case <-s.closed:
				return
			default:
			}
			if _, err := br.Peek(need); err != nil {
				return
			}
			continue
		}
		frame, _ := br.Peek(need)
		resp := s.handle(frame[2:], raddr, engine.TransportTCP, math.MaxUint16, b.resp[:0])
		_, _ = br.Discard(need)
		awaited = false
		if resp == nil {
			return
		}
		if bw.Available() < 2+len(resp) && !flush() {
			return
		}
		// bw's write errors are sticky: one for a prefix byte shows below.
		_ = bw.WriteByte(byte(len(resp) >> 8))
		_ = bw.WriteByte(byte(len(resp)))
		if _, err := bw.Write(resp); err != nil {
			return
		}
	}
}
