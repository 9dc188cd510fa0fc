package dnsserver

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dnslb/internal/dnswire"
	"dnslb/internal/engine"
)

// Serve loops and lifecycle: socket binding, the parallel UDP
// reader/responder workers, the TCP accept loop and its pipelined
// per-connection handlers, the optional DoH front end, and the two
// stop paths (immediate Close, graceful Shutdown).

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
// exit; in-flight exchanges may be cut off. For a drain-then-stop, use
// Shutdown.
func (s *Server) Close() error {
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
	var first error
	if s.udp != nil {
		first = s.udp.Close()
	}
	if s.tcp != nil {
		if err := s.tcp.Close(); err != nil && first == nil {
			first = err
		}
	}
	if s.httpSrv != nil {
		if err := s.httpSrv.Close(); err != nil && first == nil {
			first = err
		}
	}
	// Closing the listener does not close accepted connections; do it
	// explicitly so Close never waits out a TCP idle deadline.
	s.connsMu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.connsMu.Unlock()
	s.wg.Wait()
	return first
}

// Shutdown stops the server gracefully: new work is refused, but
// queries already read from the sockets are answered before the serve
// loops exit. The UDP socket stays open (writable) until every worker
// has finished its in-flight response; TCP stops accepting at once and
// each open connection completes its current exchange. When ctx
// expires first, the remaining work is cut off as in Close and ctx's
// error is returned.
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
	if s.httpSrv != nil {
		// Graceful: in-flight DoH exchanges complete; if ctx expires the
		// Close fallback below cuts whatever remains.
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

// packPool recycles response buffers across queries; serve loops pack
// into a pooled buffer via dnswire.AppendPack and return it after the
// write, so steady-state encoding allocates nothing.
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
		resp := s.safeHandle(buf[:n], raddr.Addr(), engine.TransportUDP, dnswire.MaxUDPPayload, (*bp)[:0])
		if resp != nil {
			if _, err := s.udp.WriteToUDPAddrPort(resp, raddr); err != nil {
				s.logger.Warn("udp write failed", "err", err, "worker", worker, "raddr", raddr)
			}
			if cap(resp) > cap(*bp) {
				*bp = resp[:0] // keep the grown buffer
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
// a pooled read buffer; 512 comfortably covers legitimate TCP retry
// traffic (truncated UDP responses) while bounding a connection flood.
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

// tcpBufPool recycles TCP read buffers: one Get per in-flight message
// keeps the steady-state read path allocation-free while a flood of
// short-lived connections recycles instead of churning 4 KiB slabs.
var tcpBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, maxTCPQuery)
		return &b
	},
}

// maxTCPPipeline bounds how many queries one TCP connection may have in
// flight at once (RFC 7766 §6.2.1.1 pipelining). The reader stalls —
// applying natural backpressure through the kernel's receive window —
// once the cap is reached, so one connection can neither spawn
// unbounded handler goroutines nor pin unbounded pooled buffers.
const maxTCPPipeline = 16

// serveTCPConn serves one TCP connection with pipelining per RFC 7766:
// the read loop keeps consuming length-prefixed queries while up to
// maxTCPPipeline handler goroutines process earlier ones concurrently,
// and each handler writes its length-prefixed response under the
// connection's write lock the moment it is ready — so responses may
// interleave in any order (clients match on message ID) and one slow
// decision never convoys the queries behind it.
//
// Framing errors (zero or oversized length prefix) and unanswerable
// messages cut the connection exactly as the sequential loop did;
// in-flight handlers for earlier queries still complete and write
// their responses before the deferred Wait returns.
func (s *Server) serveTCPConn(conn net.Conn) {
	var raddr netip.Addr
	if ap, err := netip.ParseAddrPort(conn.RemoteAddr().String()); err == nil {
		raddr = ap.Addr()
	}
	var (
		wmu    sync.Mutex // serializes response writes
		wg     sync.WaitGroup
		broken atomic.Bool // a handler failed to write or dropped its query
		sem    = make(chan struct{}, maxTCPPipeline)
	)
	// Cut the connection: mark it broken so the read loop stops, and
	// close it so concurrent handlers' writes fail fast. Handlers call
	// this too, making a mid-pipeline failure converge from both sides.
	cut := func() {
		broken.Store(true)
		_ = conn.Close()
	}
	defer wg.Wait()
	var lenBuf [2]byte
	for {
		// A graceful shutdown lets in-flight exchanges finish but takes
		// no further messages from the connection.
		select {
		case <-s.closed:
			return
		default:
		}
		if broken.Load() {
			return
		}
		if err := conn.SetReadDeadline(time.Now().Add(tcpIdleTimeout)); err != nil {
			return
		}
		if _, err := readFull(conn, lenBuf[:]); err != nil {
			return
		}
		n := int(lenBuf[0])<<8 | int(lenBuf[1])
		// Validate the length prefix BEFORE reading the payload: a
		// zero-length message carries nothing answerable, and an
		// oversized one is read-and-discard work no legitimate resolver
		// ever asks for. Both stop the read loop; responses already in
		// flight drain through the deferred Wait before the caller
		// closes the connection.
		if n == 0 || n > maxTCPQuery {
			return
		}
		// The message gets its own pooled buffer: the handler goroutine
		// owns it until done, while the read loop moves on to the next
		// length prefix.
		msgp := tcpBufPool.Get().(*[]byte)
		msg := (*msgp)[:n]
		if _, err := readFull(conn, msg); err != nil {
			tcpBufPool.Put(msgp)
			return
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() {
				<-sem
				wg.Done()
			}()
			bp := packPool.Get().(*[]byte)
			resp := s.safeHandle(msg, raddr, engine.TransportTCP, math.MaxUint16, (*bp)[:0])
			tcpBufPool.Put(msgp)
			if resp == nil {
				packPool.Put(bp)
				cut()
				return
			}
			var pfx [2]byte
			pfx[0], pfx[1] = byte(len(resp)>>8), byte(len(resp))
			// Two-buffer writev under the write lock: length prefix +
			// pooled response body, no copy into a combined slice, and
			// no interleaving of partial responses from other handlers.
			wmu.Lock()
			_ = conn.SetWriteDeadline(time.Now().Add(tcpIdleTimeout))
			bufs := net.Buffers{pfx[:], resp}
			_, err := bufs.WriteTo(conn)
			wmu.Unlock()
			if cap(resp) > cap(*bp) {
				*bp = resp[:0]
			}
			packPool.Put(bp)
			if err != nil {
				cut()
			}
		}()
	}
}

func readFull(conn net.Conn, buf []byte) (int, error) {
	read := 0
	for read < len(buf) {
		n, err := conn.Read(buf[read:])
		read += n
		if err != nil {
			return read, err
		}
	}
	return read, nil
}
