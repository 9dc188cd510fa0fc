package replication

import (
	"errors"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dnslb/internal/logging"
	"dnslb/internal/reportlink"
)

// queueLen bounds each peer's outbound delta queue; overflow drops the
// oldest delta and schedules a full-state resync.
const queueLen = 64

// ReplicatorConfig assembles a live Replicator.
type ReplicatorConfig struct {
	// Node is the replication endpoint whose deltas are shipped.
	// Required.
	Node *Node
	// Peers are the other replicas' report-socket addresses. Required
	// (at least one).
	Peers []string
	// Interval is the flush/gossip cadence. Default 1s.
	Interval time.Duration
	// Logger receives link state transitions; nil discards.
	Logger *slog.Logger
}

// Replicator ships a Node's deltas to a fixed peer set over the report
// socket protocol, one reportlink.Link per peer (which owns the dial,
// the redial backoff and the deadlines), and sends a full-state
// anti-entropy snapshot whenever a link (re)connects or overflowed its
// queue. Losing every peer only degrades gossip — the local engine
// keeps scheduling from its own state, so queries are never refused on
// account of replication.
type Replicator struct {
	node     *Node
	peers    []*peerLink
	interval time.Duration
	log      *slog.Logger

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// peerLink is one outbound replication link.
type peerLink struct {
	link  *reportlink.Link
	queue chan *Delta

	needsFull atomic.Bool

	sent      atomic.Uint64
	drops     atomic.Uint64
	fullSyncs atomic.Uint64
}

// NewReplicator builds a replicator; Start launches it.
func NewReplicator(cfg ReplicatorConfig) (*Replicator, error) {
	if cfg.Node == nil {
		return nil, errors.New("replication: Node is required")
	}
	if len(cfg.Peers) == 0 {
		return nil, errors.New("replication: at least one peer is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	log := cfg.Logger
	if log == nil {
		log = logging.Discard()
	}
	r := &Replicator{
		node:     cfg.Node,
		interval: cfg.Interval,
		log:      log,
		stop:     make(chan struct{}),
	}
	for _, addr := range cfg.Peers {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		p := &peerLink{link: reportlink.New(addr, nil), queue: make(chan *Delta, queueLen)}
		p.needsFull.Store(true) // first contact always starts with a snapshot
		r.peers = append(r.peers, p)
	}
	if len(r.peers) == 0 {
		return nil, errors.New("replication: peer list is empty after trimming")
	}
	return r, nil
}

// Start launches the flush loop and one goroutine per peer link.
func (r *Replicator) Start() {
	r.wg.Add(1 + len(r.peers))
	go r.flushLoop()
	for _, p := range r.peers {
		go r.runPeer(p)
	}
}

// Stop terminates all link goroutines and waits for them.
func (r *Replicator) Stop() {
	r.once.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// flushLoop drains the node every interval and fans the deltas out to
// every peer queue.
func (r *Replicator) flushLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			for _, d := range r.node.Flush() {
				for _, p := range r.peers {
					p.enqueue(d)
				}
			}
		}
	}
}

// enqueue adds a delta to the link's bounded queue; on overflow the
// oldest delta is dropped and the link is marked for a full resync
// (the snapshot supersedes anything dropped).
func (p *peerLink) enqueue(d *Delta) {
	for {
		select {
		case p.queue <- d:
			return
		default:
		}
		select {
		case <-p.queue:
			p.drops.Add(1)
			p.needsFull.Store(true)
		default:
		}
	}
}

// runPeer is a link's delivery loop: it wakes on queued deltas and on
// the gossip tick (so reconnects and pending full syncs proceed even
// when nothing new is flushing).
func (r *Replicator) runPeer(p *peerLink) {
	defer r.wg.Done()
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			p.link.Close()
			return
		case d := <-p.queue:
			r.deliver(p, d)
		case <-t.C:
			r.deliver(p, nil)
		}
	}
}

// deliver pushes one delta (nil for a pure maintenance tick) down the
// link, connecting and full-syncing as needed. While the link is down,
// incremental deltas are dropped — by design: the full-state snapshot
// sent on reconnect supersedes every dropped ledger/standing change,
// and dropped hit increments age out of the estimator within an
// interval (same failure model as a lost backend report).
func (r *Replicator) deliver(p *peerLink, d *Delta) {
	if p.link.Connect() != nil {
		return // needsFull is set: the link starts down, and goes down only in send
	}
	if p.needsFull.Load() {
		for _, s := range r.node.Snapshot() {
			if !r.send(p, s) {
				return
			}
		}
		p.needsFull.Store(false)
		p.fullSyncs.Add(1)
		r.log.Info("replication full sync sent", "peer", p.link.Addr())
	}
	if d == nil {
		// Maintenance tick with nothing queued: probe the link with an
		// empty heartbeat delta so a dead peer is noticed within one
		// interval even when no state is changing.
		d = r.node.Heartbeat()
	}
	r.send(p, d)
}

// send exchanges one REPL line with the peer. A failure has dropped the
// connection, so the next delivery after the link's backoff redials and
// resyncs with a snapshot.
func (r *Replicator) send(p *peerLink, d *Delta) bool {
	enc, err := d.Encode()
	if err == nil {
		_, err = p.link.Exchange("REPL " + string(enc))
	}
	if err != nil {
		p.needsFull.Store(true)
		r.log.Warn("replication peer lost", "peer", p.link.Addr(), "err", err)
		return false
	}
	p.sent.Add(1)
	return true
}

// PeerHealth is one link's scrape-time state. SendErrors counts every
// failed dial and every failed exchange on the link.
type PeerHealth struct {
	Addr       string
	Connected  bool
	Sent       uint64
	SendErrors uint64
	Drops      uint64
	FullSyncs  uint64
}

// Health returns every link's state.
func (r *Replicator) Health() []PeerHealth {
	out := make([]PeerHealth, len(r.peers))
	for i, p := range r.peers {
		out[i] = PeerHealth{
			Addr:       p.link.Addr(),
			Connected:  p.link.Up(),
			Sent:       p.sent.Load(),
			SendErrors: p.link.Errors(),
			Drops:      p.drops.Load(),
			FullSyncs:  p.fullSyncs.Load(),
		}
	}
	return out
}

// ConnectedPeers returns how many links are currently up.
func (r *Replicator) ConnectedPeers() int {
	n := 0
	for _, p := range r.peers {
		if p.link.Up() {
			n++
		}
	}
	return n
}

// Degraded reports whether the replica has lost every peer and is
// scheduling from local state only.
func (r *Replicator) Degraded() bool { return r.ConnectedPeers() == 0 }

// Peers returns the configured peer addresses.
func (r *Replicator) Peers() []string {
	out := make([]string, len(r.peers))
	for i, p := range r.peers {
		out[i] = p.link.Addr()
	}
	return out
}
