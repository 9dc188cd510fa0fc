package loadgen

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"
)

// Options configure a Generator.
type Options struct {
	Addr    netip.AddrPort
	Framing Framing
	// Conns is the number of connections. Connection c sends ring
	// entries c, c+Conns, c+2·Conns, ….
	Conns int
	// Loops is the number of load goroutines; goroutine l drives
	// connections l, l+Loops, … in rotation. 0 means one per connection.
	// More connections than goroutines is how a transport with one
	// request in flight per connection keeps the server busy without
	// more spinning threads than the generator has processors.
	Loops int
	// Window bounds the queries a connection keeps in flight. The
	// closed loop holds it full. The open loop applies it to stream
	// transports, where the server reads no further than its own
	// pipeline depth anyway, and maxDatagramsInFlight to UDP; a due
	// query that must wait for room still has its latency taken from
	// its due time. FrameHTTP is always one in flight.
	Window int
	// Timeout is how long a query may stay unanswered before it fails.
	Timeout time.Duration
	Servers Servers
}

// maxDatagramsInFlight bounds what the open loop keeps outstanding
// over UDP, all connections together. Arrivals are not otherwise held
// back by the server, but a generator that the host froze for tens of
// milliseconds would release everything that fell due meanwhile in one
// burst, overflow the server's socket buffer (Linux's default 208 KiB
// holds about 270 minimum-size datagrams) and count its own hiccup as
// the server's packet loss. Up to the bound the loop is open; beyond it
// a due query waits, and the wait is part of its latency.
const maxDatagramsInFlight = 192

// Generator drives one server over a fixed set of connections.
type Generator struct {
	ring  *Ring
	opt   Options
	conns []*conn
	spans *SpanLog // when non-nil, receives one span per answered query
}

// conn is one connection and the in-flight table of the ring entries
// it owns. Only its load goroutine touches it.
type conn struct {
	g    *Generator
	id   int
	s    *sock
	rbuf []byte  // stream reassembly buffer
	rn   int     // bytes of rbuf in use
	due  []int64 // due[i] != 0: entry i is in flight and was due then (ns on the phase clock)
	head int     // next entry to send
	sent int     // entry sent last
	tail int     // oldest entry that may still be in flight
	n    int     // entries in flight

	// The phase under way.
	ph      *phase
	res     *Result
	nextDue int64 // open loop: when entry head is due
	last    int64 // when the last response arrived
	done    bool
}

// phase is what the connections of one run share. Times are ns since
// epoch, offset by one so that zero can mean "not in flight".
type phase struct {
	epoch  time.Time
	end    int64
	open   bool
	limit  uint64 // when non-zero, the queries each connection may send
	window int    // the queries a connection may have in flight
}

func (ph *phase) clock() int64 { return int64(time.Since(ph.epoch)) + 1 }

// Dial opens the generator's connections.
func Dial(ring *Ring, opt Options) (*Generator, error) {
	if opt.Conns <= 0 || opt.Window <= 0 || opt.Timeout <= 0 {
		return nil, errors.New("loadgen: Conns, Window and Timeout must be positive")
	}
	if opt.Framing == FrameHTTP {
		opt.Window = 1
	}
	if opt.Loops <= 0 || opt.Loops > opt.Conns {
		opt.Loops = opt.Conns
	}
	g := &Generator{ring: ring, opt: opt}
	for i := 0; i < opt.Conns; i++ {
		s, err := dial(opt.Addr, opt.Framing != FrameUDP)
		if err != nil {
			g.Close()
			return nil, err
		}
		g.conns = append(g.conns, &conn{
			g: g, id: i, s: s, head: i, tail: i,
			rbuf: make([]byte, 1<<16),
			due:  make([]int64, RingSize),
		})
	}
	return g, nil
}

// SetSpans turns per-query span recording on (or, with nil, off) for
// the phases that follow.
func (g *Generator) SetSpans(l *SpanLog) { g.spans = l }

// Close closes the connections.
func (g *Generator) Close() {
	for _, c := range g.conns {
		c.s.close()
	}
}

// Result is what one phase measured.
type Result struct {
	Elapsed time.Duration // first send to the later of the phase end and the last response
	Sent    uint64
	Correct uint64
	Fails   [NumFails]uint64
	// Stray counts responses that answer nothing outstanding: a
	// duplicate, a corrupted ID, or an answer that came after its query
	// had already timed out (and been counted as failed then).
	Stray uint64
	// Latency holds one sample per correct answer in ns: from the
	// query's due time in the open loop, from its send in the closed loop.
	Latency []uint32
	// Late holds, for the open loop, how many ns after its due time
	// each query was actually sent.
	Late []uint32
}

// Failed is the number of queries that did not get their correct answer.
func (r *Result) Failed() uint64 {
	var n uint64
	for _, f := range r.Fails[1:] {
		n += f
	}
	return n
}

func (r *Result) merge(o *Result) {
	if o.Elapsed > r.Elapsed {
		r.Elapsed = o.Elapsed
	}
	r.Sent += o.Sent
	r.Correct += o.Correct
	for i := range r.Fails {
		r.Fails[i] += o.Fails[i]
	}
	r.Stray += o.Stray
	r.Latency = append(r.Latency, o.Latency...)
	r.Late = append(r.Late, o.Late...)
}

// Closed runs the closed loop for d: every connection keeps Window
// queries in flight and sends the next one as each answer arrives.
func (g *Generator) Closed(d time.Duration) (*Result, error) { return g.run(d, false, 0) }

// Burst is the closed loop cut short: each connection sends at most n
// queries and the phase ends as soon as they are settled, or after d.
func (g *Generator) Burst(n int, d time.Duration) (*Result, error) {
	return g.run(d, false, uint64(n))
}

// Open runs the open loop for d: queries leave on the ring's seeded
// arrival schedule whatever the server does, and latency is taken from
// each query's due time.
func (g *Generator) Open(d time.Duration) (*Result, error) { return g.run(d, true, 0) }

// run starts the load goroutines and merges the connections' results.
// limit, when non-zero, caps the queries each connection sends.
func (g *Generator) run(d time.Duration, open bool, limit uint64) (*Result, error) {
	ph := &phase{epoch: time.Now(), end: int64(d) + 1, open: open, limit: limit, window: g.opt.Window}
	if open && g.opt.Framing == FrameUDP {
		ph.window = max(1, maxDatagramsInFlight/len(g.conns))
	}
	for _, c := range g.conns {
		c.begin(ph)
	}
	errs := make([]error, g.opt.Loops)
	var wg sync.WaitGroup
	for l := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[l] = g.drive(l)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	total := g.conns[0].res
	for _, c := range g.conns[1:] {
		total.merge(c.res)
	}
	return total, nil
}

// drive is load goroutine l: it gives each of its connections a turn,
// round and round, until all have finished the phase. It never blocks.
func (g *Generator) drive(l int) error {
	for live := true; live; {
		live = false
		for i := l; i < len(g.conns); i += g.opt.Loops {
			if c := g.conns[i]; !c.done {
				if err := c.turn(); err != nil {
					return err
				}
				live = true
			}
		}
	}
	return nil
}

// begin readies the connection for a phase. In the open loop the
// connection's first query is due id gaps into the phase, so that the
// connections do not all open with a query at the same instant.
func (c *conn) begin(ph *phase) {
	c.ph, c.res, c.done = ph, &Result{}, false
	c.nextDue = 1 + int64(c.g.ring.gap[c.head])*int64(c.id)
	c.last = 1
}

// turn is one round of the connection's load loop: send what is due,
// read what has arrived, expire what is overdue, and when the phase is
// over and nothing is in flight any more, close the books.
func (c *conn) turn() error {
	var (
		ring    = c.g.ring
		opt     = &c.g.opt
		ph      = c.ph
		res     = c.res
		timeout = int64(opt.Timeout)
	)
	now := ph.clock()
	sending := now < ph.end && (ph.limit == 0 || res.Sent < ph.limit)
	if !sending && (c.n == 0 || now >= ph.end+timeout) {
		c.finish()
		return nil
	}
	// Send.
	for sending && c.n < ph.window && (!ph.open || c.nextDue <= now) {
		i := c.head
		if c.due[i] != 0 { // the ring came round to a query never answered
			c.expire(i, res)
		}
		due := now
		if ph.open {
			// Each connection takes every Conns-th entry, Conns gaps
			// apart: together they offer the ring's rate, and — the gaps
			// being exponential — a Poisson stream like a single one.
			due = c.nextDue
			c.nextDue += int64(ring.gap[i]) * int64(opt.Conns)
			res.Late = append(res.Late, uint32(min(now-due, 1<<32-1)))
		}
		if err := c.s.send(ring.Entry(i), opt.Timeout); err != nil {
			return err
		}
		c.due[i] = due
		c.n++
		res.Sent++
		c.sent, c.head = i, c.after(i)
		now = ph.clock()
		sending = now < ph.end && (ph.limit == 0 || res.Sent < ph.limit)
	}
	// Receive.
	got, err := c.s.recv(c.rbuf[c.rn:])
	if err != nil {
		return err
	}
	if got > 0 {
		now = ph.clock()
		c.last = now
		c.rn += got
		if err := c.deliver(now, res); err != nil {
			return err
		}
	}
	// Expire.
	for c.n > 0 {
		if t := c.due[c.tail]; t != 0 {
			if now-t <= timeout {
				break
			}
			c.expire(c.tail, res)
		}
		if c.tail == c.head {
			break
		}
		c.tail = c.after(c.tail)
	}
	return nil
}

// finish ends the connection's phase: whatever is still in flight
// after the drain has timed out.
func (c *conn) finish() {
	for i := c.id; i < RingSize; i += c.g.opt.Conns {
		if c.due[i] != 0 {
			c.expire(i, c.res)
		}
	}
	c.tail = c.head
	if c.ph.limit == 0 {
		c.last = max(c.last, c.ph.end)
	}
	c.res.Elapsed = time.Duration(c.last - 1)
	c.done = true
}

// after returns the entry this connection sends after entry i.
func (c *conn) after(i int) int {
	if i += c.g.opt.Conns; i < RingSize {
		return i
	}
	return c.id
}

func (c *conn) expire(i int, res *Result) {
	c.due[i] = 0
	c.n--
	res.Fails[FailTimeout]++
}

// deliver splits the receive buffer into responses and settles each
// against the query it answers.
func (c *conn) deliver(now int64, res *Result) error {
	framing := c.g.opt.Framing
	buf := c.rbuf[:c.rn]
	for len(buf) > 0 {
		var msg []byte
		var status int
		switch framing {
		case FrameUDP:
			msg, buf = buf, nil
		case FrameTCP:
			if len(buf) < 2 {
				goto partial
			}
			n := int(binary.BigEndian.Uint16(buf))
			if len(buf) < 2+n {
				goto partial
			}
			msg, buf = buf[2:2+n], buf[2+n:]
		case FrameHTTP:
			body, total, st, err := parseHTTP(buf)
			if err != nil {
				return err
			}
			if total == 0 {
				goto partial
			}
			msg, status, buf = body, st, buf[total:]
		}
		c.settle(msg, status, now, res)
	}
partial:
	// Keep an incomplete frame for the next read.
	c.rn = copy(c.rbuf, buf)
	if c.rn == len(c.rbuf) {
		return fmt.Errorf("loadgen: response larger than %d bytes", len(c.rbuf))
	}
	return nil
}

// settle finds the query msg answers, checks it and records the result.
func (c *conn) settle(msg []byte, status int, now int64, res *Result) {
	ring, opt := c.g.ring, &c.g.opt
	var i int
	if opt.Framing == FrameHTTP {
		// One in flight: the response answers the query last sent.
		i = c.sent
	} else {
		if len(msg) < 2 {
			res.Stray++
			return
		}
		i = int(binary.BigEndian.Uint16(msg))
	}
	due := c.due[i]
	if due == 0 || i%opt.Conns != c.id {
		res.Stray++
		return
	}
	c.due[i] = 0
	c.n--
	var f Fail
	switch {
	case opt.Framing == FrameHTTP && status != 200:
		f = FailHTTP
	case ring.kind[i] == KindJSON:
		f = checkJSON(msg, ring.subnet[i], opt.Servers)
	default:
		f = Check(msg, ring.Query(i), ring.kind[i], ring.subnet[i], opt.Servers)
	}
	if f != OK {
		res.Fails[f]++
		return
	}
	res.Correct++
	res.Latency = append(res.Latency, uint32(min(now-due, 1<<32-1)))
	if c.g.spans != nil {
		c.g.spans.Add(Span{Start: due, End: now, ID: uint32(i), Kind: ring.kind[i]})
	}
}
