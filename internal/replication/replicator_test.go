package replication

import (
	"bufio"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakePeer is a minimal report-socket endpoint: it answers REPL lines
// with OK and records the parsed deltas.
type fakePeer struct {
	t  *testing.T
	ln net.Listener

	mu     sync.Mutex
	deltas []*Delta
	reject bool
	conns  []net.Conn
}

// down severs the peer: stop listening and kill live connections.
func (p *fakePeer) down() {
	_ = p.ln.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		_ = c.Close()
	}
	p.conns = nil
}

func newFakePeer(t *testing.T) *fakePeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &fakePeer{t: t, ln: ln}
	go p.acceptLoop(ln)
	t.Cleanup(func() { _ = ln.Close() })
	return p
}

func (p *fakePeer) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go p.serve(conn)
	}
}

func (p *fakePeer) serve(conn net.Conn) {
	defer conn.Close()
	p.mu.Lock()
	p.conns = append(p.conns, conn)
	p.mu.Unlock()
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "REPL ") {
			_, _ = conn.Write([]byte("ERR want REPL\n"))
			continue
		}
		p.mu.Lock()
		reject := p.reject
		p.mu.Unlock()
		if reject {
			_, _ = conn.Write([]byte("ERR rejected\n"))
			continue
		}
		d, err := ParseDelta([]byte(strings.TrimPrefix(line, "REPL ")))
		if err != nil {
			_, _ = conn.Write([]byte("ERR parse\n"))
			continue
		}
		p.mu.Lock()
		p.deltas = append(p.deltas, d)
		p.mu.Unlock()
		_, _ = conn.Write([]byte("OK\n"))
	}
}

func (p *fakePeer) addr() string { return p.ln.Addr().String() }

func (p *fakePeer) received() []*Delta {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Delta(nil), p.deltas...)
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestReplicatorShipsDeltas(t *testing.T) {
	peer := newFakePeer(t)
	a := newTestReplica(t, "a", 1, 3, 4)
	r, err := NewReplicator(ReplicatorConfig{
		Node:     a.node,
		Peers:    []string{peer.addr()},
		Interval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()

	// First contact is a full sync even with no local changes yet.
	waitFor(t, "initial full sync", func() bool {
		for _, d := range peer.received() {
			if d.Full {
				return true
			}
		}
		return false
	})
	waitFor(t, "connected health", func() bool { return r.ConnectedPeers() == 1 && !r.Degraded() })

	a.clock.Set(3)
	if _, err := a.eng.Decide(1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "incremental delta", func() bool {
		for _, d := range peer.received() {
			if !d.Full && len(d.Ledger) > 0 {
				return true
			}
		}
		return false
	})
	h := r.Health()
	if len(h) != 1 || h[0].Sent == 0 || h[0].FullSyncs == 0 {
		t.Fatalf("bad health: %+v", h)
	}
}

func TestReplicatorSurvivesPeerLossAndResyncs(t *testing.T) {
	peer := newFakePeer(t)
	a := newTestReplica(t, "a", 1, 3, 4)
	r, err := NewReplicator(ReplicatorConfig{
		Node:     a.node,
		Peers:    []string{peer.addr()},
		Interval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()
	// The link reports itself up before it ships the initial snapshot,
	// so wait for that first full sync to be counted: cutting the peer
	// earlier can kill it, leaving only the post-heal one.
	waitFor(t, "initial full sync", func() bool { return r.Health()[0].FullSyncs >= 1 })

	// Peer goes away: the replica degrades to local-only but keeps
	// scheduling.
	peer.down()
	a.clock.Set(1)
	if _, err := a.eng.Decide(0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "degraded", func() bool { return r.Degraded() })
	if _, err := a.eng.Decide(1); err != nil {
		t.Fatalf("degraded replica refused a query: %v", err)
	}

	// Peer returns on the same address: the link must reconnect under
	// backoff and lead with a fresh full sync.
	before := len(peer.received())
	ln, err := net.Listen("tcp", peer.addr())
	if err != nil {
		t.Skipf("could not rebind %s: %v", peer.addr(), err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go peer.acceptLoop(ln)

	waitFor(t, "reconnect", func() bool { return r.ConnectedPeers() == 1 })
	waitFor(t, "post-heal full sync", func() bool {
		for _, d := range peer.received()[before:] {
			if d.Full {
				return true
			}
		}
		return false
	})
	if h := r.Health()[0]; h.SendErrors == 0 {
		t.Error("outage produced no send errors")
	}
	// The link counts a full sync only after the peer has answered its
	// last delta, which can trail the peer recording it.
	waitFor(t, "FullSyncs ≥ 2 (initial + post-heal)", func() bool { return r.Health()[0].FullSyncs >= 2 })
}

func TestReplicatorRejectedDeltaTearsLinkDown(t *testing.T) {
	peer := newFakePeer(t)
	peer.mu.Lock()
	peer.reject = true
	peer.mu.Unlock()
	a := newTestReplica(t, "a", 1, 2, 4)
	r, err := NewReplicator(ReplicatorConfig{
		Node:     a.node,
		Peers:    []string{peer.addr()},
		Interval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()
	waitFor(t, "send errors counted", func() bool { return r.Health()[0].SendErrors > 0 })

	// Once the peer stops rejecting, the link recovers.
	peer.mu.Lock()
	peer.reject = false
	peer.mu.Unlock()
	waitFor(t, "recovery", func() bool {
		for _, d := range peer.received() {
			if d.Full {
				return true
			}
		}
		return false
	})
}

func TestNewReplicatorValidation(t *testing.T) {
	a := newTestReplica(t, "a", 1, 2, 4)
	if _, err := NewReplicator(ReplicatorConfig{Peers: []string{"x"}}); err == nil {
		t.Error("nil node accepted")
	}
	if _, err := NewReplicator(ReplicatorConfig{Node: a.node}); err == nil {
		t.Error("empty peer list accepted")
	}
	if _, err := NewReplicator(ReplicatorConfig{Node: a.node, Peers: []string{" ", ""}}); err == nil {
		t.Error("blank peer list accepted")
	}
}
