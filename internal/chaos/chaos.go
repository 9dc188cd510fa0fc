// Package chaos provides seeded network fault injection for tests and
// soak harnesses, as two proxies. UDPProxy carries datagram traffic (DNS
// queries) and applies a Fault to every datagram in both directions:
// probabilistic drop and duplication, and a fixed delay plus uniform
// jitter. TCPProxy carries stream traffic (report and replication
// sockets, probe targets) and has one fault, a hard link cut: Cut kills
// its connections and refuses new ones until Heal.
//
// UDPProxy is seeded so a failing soak run can be replayed with the same
// fault decisions (modulo goroutine scheduling), and SetFault swaps its
// fault atomically, so a test can ramp loss rates mid-run.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// Fault describes what a UDPProxy does to datagrams. The zero value is a
// transparent proxy. Probabilities are per datagram and must lie in
// [0, 1].
type Fault struct {
	Drop   float64       // probability a datagram is silently dropped
	Dup    float64       // probability a datagram is delivered twice
	Delay  time.Duration // fixed latency added to every delivery
	Jitter time.Duration // extra uniform latency in [0, Jitter)
}

func (f Fault) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", f.Drop}, {"dup", f.Dup}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("chaos: %s probability %v outside [0,1]", p.name, p.v)
		}
	}
	if f.Delay < 0 || f.Jitter < 0 {
		return errors.New("chaos: negative delay/jitter")
	}
	return nil
}

// Stats counts what a proxy did to traffic. Retrieved atomically via
// the proxy's Stats method.
type Stats struct {
	Forwarded uint64 // datagrams delivered (duplicates counted)
	Dropped   uint64 // datagrams discarded by Drop
	Dupped    uint64 // extra copies delivered by Dup
	Refused   uint64 // TCP connections refused or killed by Cut
}

type counters struct {
	forwarded atomic.Uint64
	dropped   atomic.Uint64
	dupped    atomic.Uint64
	refused   atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Forwarded: c.forwarded.Load(),
		Dropped:   c.dropped.Load(),
		Dupped:    c.dupped.Load(),
		Refused:   c.refused.Load(),
	}
}

// rng is a mutex-guarded seeded source shared by a proxy's goroutines.
type rng struct {
	mu sync.Mutex
	r  *rand.Rand
}

func newRNG(seed uint64) *rng {
	return &rng{r: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

func (g *rng) float64() float64 {
	g.mu.Lock()
	v := g.r.Float64()
	g.mu.Unlock()
	return v
}

// ---------------------------------------------------------------------------
// UDPProxy

// UDPProxy forwards datagrams between clients and a single upstream
// target, applying the active Fault in both directions. Each client
// source address gets its own upstream socket so responses route back
// to the right client.
type UDPProxy struct {
	ln     *net.UDPConn
	target string
	fault  atomic.Pointer[Fault] // read lock-free on the datapath
	rng    *rng
	stats  counters

	mu       sync.Mutex
	sessions map[netip.AddrPort]*udpSession
	closed   bool

	done chan struct{}
	wg   sync.WaitGroup
}

type udpSession struct {
	up     *net.UDPConn
	client netip.AddrPort
}

// NewUDPProxy listens on listenAddr (use "127.0.0.1:0" in tests) and
// forwards datagrams to target. The seed fixes the fault-decision
// stream.
func NewUDPProxy(listenAddr, target string, seed uint64) (*UDPProxy, error) {
	laddr, err := net.ResolveUDPAddr("udp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("chaos: listen addr: %w", err)
	}
	ln, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	p := &UDPProxy{
		ln:       ln,
		target:   target,
		rng:      newRNG(seed),
		sessions: make(map[netip.AddrPort]*udpSession),
		done:     make(chan struct{}),
	}
	p.fault.Store(&Fault{})
	p.wg.Add(1)
	go p.readClients()
	return p, nil
}

// Addr returns the proxy's listen address to hand to clients.
func (p *UDPProxy) Addr() string { return p.ln.LocalAddr().String() }

// SetFault atomically replaces the active fault. It returns an error
// only for out-of-range probabilities.
func (p *UDPProxy) SetFault(f Fault) error {
	if err := f.validate(); err != nil {
		return err
	}
	p.fault.Store(&f)
	return nil
}

// Stats returns a snapshot of the proxy's traffic counters.
func (p *UDPProxy) Stats() Stats { return p.stats.snapshot() }

// Close stops the proxy and releases all sockets.
func (p *UDPProxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.done)
	sessions := p.sessions
	p.sessions = map[netip.AddrPort]*udpSession{}
	p.mu.Unlock()

	p.ln.Close()
	for _, s := range sessions {
		s.up.Close()
	}
	p.wg.Wait()
	return nil
}

func (p *UDPProxy) readClients() {
	defer p.wg.Done()
	buf := make([]byte, 65535)
	for {
		n, client, err := p.ln.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-p.done:
				return
			default:
			}
			if isTemporary(err) {
				continue
			}
			return
		}
		sess, err := p.session(client)
		if err != nil {
			continue
		}
		pkt := append([]byte(nil), buf[:n]...)
		p.deliver(pkt, func(b []byte) {
			sess.up.Write(b) //nolint:errcheck // lossy by design
		})
	}
}

// session returns (creating on first use) the upstream socket for a
// client, plus its upstream→client pump goroutine.
func (p *UDPProxy) session(client netip.AddrPort) (*udpSession, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, net.ErrClosed
	}
	if s, ok := p.sessions[client]; ok {
		return s, nil
	}
	raddr, err := net.ResolveUDPAddr("udp", p.target)
	if err != nil {
		return nil, err
	}
	up, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	s := &udpSession{up: up, client: client}
	p.sessions[client] = s
	p.wg.Add(1)
	go p.readUpstream(s)
	return s, nil
}

func (p *UDPProxy) readUpstream(s *udpSession) {
	defer p.wg.Done()
	buf := make([]byte, 65535)
	for {
		n, err := s.up.Read(buf)
		if err != nil {
			return
		}
		pkt := append([]byte(nil), buf[:n]...)
		p.deliver(pkt, func(b []byte) {
			p.ln.WriteToUDPAddrPort(b, s.client) //nolint:errcheck // lossy by design
		})
	}
}

// deliver applies the active fault to one datagram and hands surviving
// copies to send, possibly from a timer goroutine when delayed.
func (p *UDPProxy) deliver(pkt []byte, send func([]byte)) {
	f := *p.fault.Load()
	if f.Drop > 0 && p.rng.float64() < f.Drop {
		p.stats.dropped.Add(1)
		return
	}
	p.send(pkt, f, send)
	if f.Dup > 0 && p.rng.float64() < f.Dup {
		p.stats.dupped.Add(1)
		p.send(append([]byte(nil), pkt...), f, send)
	}
}

func (p *UDPProxy) send(pkt []byte, f Fault, send func([]byte)) {
	d := f.Delay
	if f.Jitter > 0 {
		d += time.Duration(p.rng.float64() * float64(f.Jitter))
	}
	p.stats.forwarded.Add(1)
	if d <= 0 {
		send(pkt)
		return
	}
	time.AfterFunc(d, func() {
		select {
		case <-p.done:
		default:
			send(pkt)
		}
	})
}

// ---------------------------------------------------------------------------
// TCPProxy

// TCPProxy forwards byte streams between clients and an upstream target.
// Cut kills existing connections and refuses new ones; Heal restores
// service for new connections. The target may be set, or changed, after
// the proxy listens (SetTarget); while it is empty every connection is
// refused.
type TCPProxy struct {
	ln    net.Listener
	stats counters

	mu     sync.Mutex
	target string
	cut    bool
	conns  map[net.Conn]struct{}
	closed bool

	done chan struct{}
	wg   sync.WaitGroup
}

// NewTCPProxy listens on listenAddr and forwards connections to target.
func NewTCPProxy(listenAddr, target string) (*TCPProxy, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	p := &TCPProxy{
		ln:     ln,
		target: target,
		conns:  make(map[net.Conn]struct{}),
		done:   make(chan struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address.
func (p *TCPProxy) Addr() string { return p.ln.Addr().String() }

// SetTarget points new connections at target; established ones keep
// their upstream. An empty target refuses every new connection.
func (p *TCPProxy) SetTarget(target string) {
	p.mu.Lock()
	p.target = target
	p.mu.Unlock()
}

// Cut severs the link: established connections die and new ones are
// refused until Heal.
func (p *TCPProxy) Cut() {
	p.mu.Lock()
	p.cut = true
	p.mu.Unlock()
	p.killConns()
}

// Heal restores the link for new connections.
func (p *TCPProxy) Heal() {
	p.mu.Lock()
	p.cut = false
	p.mu.Unlock()
}

// Stats returns a snapshot of the proxy's traffic counters.
func (p *TCPProxy) Stats() Stats { return p.stats.snapshot() }

// Close stops the proxy and severs all connections.
func (p *TCPProxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.done)
	p.mu.Unlock()
	p.ln.Close()
	p.killConns()
	p.wg.Wait()
	return nil
}

func (p *TCPProxy) killConns() {
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
		p.stats.refused.Add(1)
	}
	p.conns = make(map[net.Conn]struct{})
	p.mu.Unlock()
}

// track registers a forwarded pair, unless the proxy was cut or closed
// while the upstream was being dialled.
func (p *TCPProxy) track(client, up net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.cut {
		return false
	}
	p.conns[client] = struct{}{}
	p.conns[up] = struct{}{}
	return true
}

func (p *TCPProxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *TCPProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			select {
			case <-p.done:
				return
			default:
			}
			if isTemporary(err) {
				continue
			}
			return
		}
		p.mu.Lock()
		target, cut := p.target, p.cut
		p.mu.Unlock()
		if cut || target == "" {
			p.stats.refused.Add(1)
			client.Close()
			continue
		}
		up, err := net.DialTimeout("tcp", target, 5*time.Second)
		if err != nil {
			p.stats.refused.Add(1)
			client.Close()
			continue
		}
		if !p.track(client, up) {
			p.stats.refused.Add(1)
			client.Close()
			up.Close()
			continue
		}
		p.wg.Add(2)
		go p.pipe(client, up)
		go p.pipe(up, client)
	}
}

func (p *TCPProxy) pipe(dst, src net.Conn) {
	defer p.wg.Done()
	io.Copy(dst, src) //nolint:errcheck // either side closing ends the pair
	dst.Close()
	src.Close()
	p.untrack(dst)
	p.untrack(src)
}

func isTemporary(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
