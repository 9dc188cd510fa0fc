package dnsserver

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/netip"
	"sync"
	"time"

	"dnslb/internal/dnswire"
	"dnslb/internal/engine"
)

// Serve loops and lifecycle: Start and Shutdown, which own every
// component's launch and stop in one written order; socket binding; the
// parallel UDP reader/responder workers; the accept loop of the stream
// listeners (DNS-over-TCP, DoH, the report socket, the admin ports) and
// the buffered per-connection loop all but the report socket share, each
// with its own framer; and the one helper every periodic task runs on.

// Start brings up everything the configuration describes, in the one
// order that is safe (DESIGN.md "Lifecycle"):
//
//  1. The checkpoint is restored, before a query or a report can race
//     it. The liveness monitor exists since New, so a restored down flag
//     has a monitor that the backend's next report clears it in.
//  2. The sockets are bound: the DNS UDP/TCP pair, DoH, the report
//     socket, the metrics and pprof ports. Nothing after this step can
//     fail and nothing before it runs, so a Start that fails leaves
//     nothing bound and no goroutine behind.
//  3. The serve loops — UDP workers, one accept loop per stream
//     listener — and the liveness check.
//  4. Active probing.
//  5. Replication, after the restore so that its first flush announces
//     the restored state to the peers.
//  6. The periodic checkpoint.
func (s *Server) Start() error {
	if s.cfg.CheckpointPath != "" {
		s.restoreCheckpoint()
	}
	if err := s.bind(); err != nil {
		s.cancelDrainTimers() // a restored drain must not complete in a server that never ran
		return err
	}
	s.wg.Add(s.udpWorkers)
	for i := 0; i < s.udpWorkers; i++ {
		go s.serveUDP(i, newUDPBatch(s.udp))
	}
	for _, l := range []struct {
		ln    net.Listener
		serve func(net.Conn)
	}{
		{s.tcp, s.serveTCPConn},
		{s.httpLn, func(c net.Conn) { s.serveStream(c, dohFramer) }},
		{s.reportLn, s.serveReport},
		{s.metricsLn, func(c net.Conn) { s.serveStream(c, metricsFramer) }},
		{s.pprofLn, func(c net.Conn) { s.serveStream(c, pprofFramer) }},
	} {
		if l.ln != nil {
			s.wg.Add(1)
			go s.acceptLoop(l.ln, l.serve)
		}
	}
	if m := s.liveness; m != nil {
		s.every(m.interval, func() { m.check(time.Now()) })
	}
	if s.prober != nil {
		s.prober.Start()
	}
	if s.replicator != nil {
		s.replNode.NoteLedger()
		s.replicator.Start()
		s.logger.Info("replication started", "replica_id", s.cfg.Replication.ReplicaID, "peers", s.replicator.Peers())
	}
	if s.cfg.CheckpointPath != "" {
		s.every(s.cfg.CheckpointInterval, s.saveCheckpoint)
	}
	return nil
}

// every runs fn once every d, on a goroutine counted in s.wg, until the
// server stops — the one loop behind the liveness check and the
// periodic checkpoint.
func (s *Server) every(d time.Duration, fn func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-s.closed:
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

// bind opens every configured socket, or none: on an error it closes
// what it had opened.
//
// DNS needs the same port on both transports. With an explicit port
// that either binds or fails; with an ephemeral port (":0") the kernel
// picks the UDP port without consulting the TCP namespace, so the
// paired TCP bind can collide with an unrelated TCP socket (commonly
// one in TIME_WAIT) — in that case a fresh UDP port is drawn and the
// pair is retried.
func (s *Server) bind() error {
	addr := s.cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("dnsserver: resolve: %w", err)
	}
	const pairAttempts = 16
	for attempt := 0; ; attempt++ {
		udp, err := net.ListenUDP("udp", uaddr)
		if err != nil {
			return fmt.Errorf("dnsserver: listen udp: %w", err)
		}
		tcp, err := net.Listen("tcp", udp.LocalAddr().String())
		if err == nil {
			s.udp, s.tcp = udp, tcp
			break
		}
		_ = udp.Close()
		if uaddr.Port != 0 || attempt == pairAttempts-1 {
			return fmt.Errorf("dnsserver: listen tcp: %w", err)
		}
	}
	lns := []struct {
		what, addr string
		ln         *net.Listener
	}{
		{"http", s.cfg.HTTPAddr, &s.httpLn},
		{"report", s.cfg.ReportAddr, &s.reportLn},
		{"metrics", s.cfg.MetricsAddr, &s.metricsLn},
		{"pprof", s.cfg.PprofAddr, &s.pprofLn},
	}
	for _, l := range lns {
		if err == nil && l.addr != "" {
			if *l.ln, err = net.Listen("tcp", l.addr); err != nil {
				err = fmt.Errorf("dnsserver: listen %s: %w", l.what, err)
			}
		}
	}
	if err != nil {
		_ = s.udp.Close()
		_ = s.tcp.Close()
		for _, l := range lns {
			if *l.ln != nil {
				_ = (*l.ln).Close()
				*l.ln = nil
			}
		}
		s.udp, s.tcp = nil, nil
	}
	return err
}

// Addr returns the bound UDP address (valid after Start).
func (s *Server) Addr() net.Addr { return s.udp.LocalAddr() }

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

// Shutdown stops the server gracefully, in the reverse of Start's order.
// Everything that feeds the engine stops at once: closing s.closed ends
// the liveness check and the periodic checkpoint and lets no report
// connection take another line, then gossip and probing stop. New
// queries are refused, but those already read from the sockets are
// answered before the serve loops exit: the UDP socket stays open
// (writable) until every worker has sent its in-flight batch; the stream
// listeners (TCP, DoH, report, admin) stop accepting at once, a
// connection idle between exchanges ends at once and one in the middle of
// an exchange completes it. When ctx expires first, what remains is cut
// off, every connection closed, and ctx's error is returned. The final
// checkpoint is written last of all, so that it records what the drained
// server knew.
func (s *Server) Shutdown(ctx context.Context) error {
	select {
	case <-s.closed:
		return nil
	default:
	}
	close(s.closed)
	s.cancelDrainTimers()
	if s.replicator != nil {
		s.replicator.Stop()
	}
	if s.prober != nil {
		_ = s.prober.Close()
	}
	// Unblock the UDP readers without closing the socket: a worker
	// blocked in read observes the deadline error, sees closed, and
	// exits; a worker mid-response can still write it.
	if s.udp != nil {
		_ = s.udp.SetReadDeadline(time.Now())
	}
	var first error
	for _, ln := range []net.Listener{s.tcp, s.httpLn, s.reportLn, s.metricsLn, s.pprofLn} {
		if ln != nil {
			if err := ln.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	// The same for the stream connections, of every listener alike: one
	// blocked reading its next request wakes and exits, one handling a
	// request still writes the response (the write deadline is its own)
	// and exits when it comes back to read.
	s.connsMu.Lock()
	for c := range s.conns {
		_ = c.SetReadDeadline(time.Now())
	}
	s.connsMu.Unlock()
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
		// Closing the listeners does not close accepted connections; do it
		// explicitly so the stop never waits out an idle deadline.
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
	// Only a server that ran has anything to record: one whose Start never
	// got its sockets would write its cold state over a good file.
	if s.udp != nil && s.cfg.CheckpointPath != "" {
		s.saveCheckpoint()
	}
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

// respBufSize is the capacity of the buffer each serve loop — a UDP
// worker, a stream connection — hands handle to encode into, over and
// over, so encoding allocates nothing. No response outgrows it: the
// largest is 564 bytes, the NXDOMAIN for a name of the maximum length
// beside a zone of the maximum length (maxZoneWire), and the largest
// /resolve body, which is rendered into it too, under 1600: a question
// name of 254 bytes that each take a six-byte JSON escape.
const respBufSize = 2048

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

// serveUDP is one of GOMAXPROCS identical loops over the shared socket:
// it receives what the socket holds, up to udpBatchSize datagrams in one
// call, answers each into a response slot of its own and sends every
// response in one call (udp_linux.go; one datagram a call elsewhere,
// udp_other.go). Each worker owns its batch, so the loops share no
// mutable server state and allocate nothing. A datagram over maxTCPQuery
// bytes is answered FORMERR from its ID alone: handle sees its first two
// bytes, which no decoder accepts. When instrumented, a worker times each
// query's handle — the end of one is the start of the next — on its own
// histogram shard (the worker index is the hint).
func (s *Server) serveUDP(worker int, b *udpBatch) {
	defer s.wg.Done()
	m := s.metrics
	hint := uint32(worker)
	var backoff time.Duration
	for {
		n, err := b.recv()
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
		k := 0
		for i := 0; i < n; i++ {
			wire, from, oversized := b.query(i)
			if oversized {
				wire = wire[:2]
			}
			if resp := s.handle(wire, from, engine.TransportUDP, dnswire.MaxUDPPayload, b.resp[k][:0]); resp != nil {
				b.stage(k, i, resp)
				k++
			}
			if m != nil {
				end := time.Now()
				m.latency.ObserveHint(hint, end.Sub(start).Seconds())
				start = end
			}
		}
		s.sendUDP(b, k, worker)
	}
}

// sendUDP sends the k responses b has staged. A send call stops at a
// message it cannot send; that one is logged and skipped, and the call
// is repeated for the rest.
func (s *Server) sendUDP(b *udpBatch, k, worker int) {
	for off := 0; off < k; {
		sent, err := b.send(off, k)
		if off += sent; err != nil {
			s.logger.Warn("udp write failed", "err", err, "worker", worker, "raddr", b.dest(off))
			off++
		}
	}
}

// DefaultMaxTCPConns is the concurrent connection cap applied to each
// stream listener when Config.MaxTCPConns is zero. Each connection costs
// one goroutine plus its pooled buffers (streamBufs); 512 comfortably
// covers legitimate TCP retry traffic (truncated UDP responses) while
// bounding a flood.
const DefaultMaxTCPConns = 512

// acceptLoop is the accept side of a stream listener — DNS-over-TCP, DoH,
// the report socket or an admin port: it hands each accepted connection
// to serve on a goroutine of its own, tracked in s.conns so that Shutdown
// can reach it, and holds the listener to its own maxTCPConns connections
// at a time.
func (s *Server) acceptLoop(ln net.Listener, serve func(net.Conn)) {
	defer s.wg.Done()
	limit := s.maxTCPConns
	if limit == 0 {
		limit = math.MaxInt32 // unlimited: a cap never reached (the slots take no memory)
	}
	sem := make(chan struct{}, limit)
	var backoff time.Duration
	for {
		// Acquire a connection slot BEFORE accepting: when the listener is
		// at its cap the accept loop pauses and the kernel's SYN backlog
		// (and the clients' retries) absorb the burst. Pausing beats
		// accept-and-close — a closed connection makes the client retry
		// immediately, pausing makes it wait exactly as long as needed.
		select {
		case sem <- struct{}{}:
		case <-s.closed:
			return
		}
		conn, err := ln.Accept()
		if err != nil {
			<-sem
			select {
			case <-s.closed:
				return
			default:
				s.logger.Warn("accept failed", "err", err)
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
		// Shutdown closes s.closed and then sets every tracked connection's
		// read deadline to now; one tracked too late for that gets it here.
		select {
		case <-s.closed:
			_ = conn.SetReadDeadline(time.Now())
		default:
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				_ = conn.Close()
				s.connsMu.Lock()
				delete(s.conns, conn)
				s.connsMu.Unlock()
				<-sem
			}()
			serve(conn)
		}()
	}
}

// tcpIdleTimeout bounds how long a stream client may sit between
// requests, so idle or slowloris connections cannot pin goroutines.
const tcpIdleTimeout = 30 * time.Second

// maxTCPQuery bounds the query size on every transport. Legitimate
// queries are tiny (name + fixed sections + EDNS options); anything
// beyond 4 KiB is either garbage or an attempt to make the server
// allocate: TCP cuts the connection before reading it, DoH answers 400,
// UDP FORMERR.
const maxTCPQuery = 4096

// streamBufs is what one stream connection reads, encodes and writes
// through: a reader that holds one maximal request, a writer that batches
// the responses, and the buffer handle encodes each response into (handle
// needs a zero-length dst — the answer's compression pointer is offset
// 12 — so the ≈60 bytes are copied into the writer behind their framing).
// ≈10 KiB per TCP connection and ≈18 KiB per DoH connection, pooled so a
// flood of short-lived connections recycles the buffers instead of
// churning them.
type streamBufs struct {
	conn net.Conn
	from netip.Addr // the peer, taken once per connection
	br   *bufio.Reader
	bw   *bufio.Writer
	resp []byte
	// DoH only: the Date header's value, formatted once a second, and what
	// a GET's parameters are decoded into — percent-escapes, ?dns='s base64
	// — and the /resolve query built in, grown to what the connection's
	// requests needed: tens of bytes, a message's size at most, and one
	// that a request made of escapes grew past that is not pooled.
	date    []byte
	dateSec int64
	scratch []byte
}

// Write is what bw flushes through: every write to the socket, whether
// the loop asked for it or the buffer filled, has its own deadline.
func (b *streamBufs) Write(p []byte) (int, error) {
	_ = b.conn.SetWriteDeadline(time.Now().Add(tcpIdleTimeout))
	return b.conn.Write(p)
}

// A framer is what the stream transports differ in: where a request
// ends, and how its answer is written. Given the bytes the connection has
// buffered, exchange answers the request at their head into b.bw and
// returns its length; of an incomplete request it returns a length over
// len(buf) that the request is known to reach, for the loop to wait for;
// and 0 ends the connection, what the client is still owed written.
type framer struct {
	exchange func(s *Server, b *streamBufs, buf []byte) int
	// requestTimeout bounds the arrival of the rest of a request once the
	// loop has its first bytes and must block for more.
	requestTimeout time.Duration
	pool           *sync.Pool
}

// streamPool pools streamBufs that read requests of up to readSize bytes.
func streamPool(readSize int) *sync.Pool {
	return &sync.Pool{New: func() any {
		return &streamBufs{
			br:   bufio.NewReaderSize(nil, readSize),
			bw:   bufio.NewWriterSize(nil, maxTCPQuery),
			resp: make([]byte, 0, respBufSize),
		}
	}}
}

var (
	tcpFramer = &framer{(*Server).exchangeTCP, tcpIdleTimeout, streamPool(2 + maxTCPQuery)}
	dohFramer = &framer{(*Server).exchangeDoH, dohRequestTimeout, streamPool(maxDoHHead + maxDoHRequest)}
)

// serveTCPConn serves one DNS-over-TCP connection.
func (s *Server) serveTCPConn(conn net.Conn) {
	s.tcpConns.Add(1)
	defer s.tcpConns.Add(-1)
	s.serveStream(conn, tcpFramer)
}

// serveStream serves one stream connection: the UDP loop with framing.
// Each request is handled inline, where it lies in the read buffer, and
// its response is appended to the write buffer; the batch goes out in
// one write when the read buffer holds no further complete request —
// right before the loop would block — or when the write buffer is full.
// A client that pipelines k requests costs about two syscalls per batch,
// one that asks one at a time costs one read and one write per request,
// and responses leave in arrival order (HTTP requires it; RFC 7766 §7
// permits any, and clients match on message ID). Nothing under handle
// blocks, so there is nothing to overlap by handing requests to other
// goroutines.
//
// A request the framer refuses, an unanswerable message, a socket error
// and a graceful shutdown all end the loop; the responses already batched
// are flushed on every one of those paths before the caller closes the
// connection.
func (s *Server) serveStream(conn net.Conn, f *framer) {
	b := f.pool.Get().(*streamBufs)
	b.conn, b.from = conn, netip.Addr{}
	if ta, ok := conn.RemoteAddr().(*net.TCPAddr); ok {
		b.from = ta.AddrPort().Addr()
	}
	br, bw := b.br, b.bw
	br.Reset(conn)
	bw.Reset(b)
	defer func() {
		_ = bw.Flush()
		br.Reset(nil)
		bw.Reset(nil)
		b.conn = nil
		if cap(b.scratch) > maxDoHRequest {
			b.scratch = nil
		}
		f.pool.Put(b)
	}()
	// armed is the read timeout running for the request at the head of
	// the buffer: none, tcpIdleTimeout for its first byte, or the framer's
	// requestTimeout for the rest of it (on TCP the same, and so not set
	// again). Each is set once, when the loop first blocks in that state:
	// a client trickling a request byte by byte has the two for all of it,
	// not one for each byte, and a request that arrives whole costs one
	// timer update.
	var armed time.Duration
	for {
		buf, _ := br.Peek(br.Buffered())
		n := f.exchange(s, b, buf)
		if n == 0 {
			return
		}
		if n <= len(buf) {
			_, _ = br.Discard(n)
			armed = 0
			continue
		}
		// About to block. Flush first, or a client that waits for an
		// answer before sending more (or whose next request is split
		// across segments) waits out the idle timeout for a response
		// sitting in the write buffer.
		if bw.Flush() != nil {
			return
		}
		timeout := tcpIdleTimeout
		if len(buf) > 0 {
			timeout = f.requestTimeout
		}
		if armed != timeout {
			if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
				return
			}
			armed = timeout
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
		if _, err := br.Peek(n); err != nil {
			return
		}
	}
}

// exchangeTCP is the RFC 7766 framer: a two-byte length before each
// message, in both directions. The length is validated BEFORE the
// payload is awaited: a zero-length message carries nothing answerable,
// and an oversized one is read-and-discard work no legitimate resolver
// ever asks for.
func (s *Server) exchangeTCP(b *streamBufs, buf []byte) int {
	if len(buf) < 2 {
		return 2
	}
	n := 2 + (int(buf[0])<<8 | int(buf[1]))
	if n == 2 || n > 2+maxTCPQuery {
		return 0
	}
	if len(buf) < n {
		return n
	}
	resp := s.handle(buf[2:n], b.from, engine.TransportTCP, math.MaxUint16, b.resp[:0])
	if resp == nil {
		return 0
	}
	// bw's write errors are sticky: one for a prefix byte shows below.
	_ = b.bw.WriteByte(byte(len(resp) >> 8))
	_ = b.bw.WriteByte(byte(len(resp)))
	if _, err := b.bw.Write(resp); err != nil {
		return 0
	}
	return n
}
