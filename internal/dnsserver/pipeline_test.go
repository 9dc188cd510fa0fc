package dnsserver

import (
	"context"
	"io"
	"net"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnslb/internal/dnswire"
)

// TCP pipelining (RFC 7766 §6.2.1.1) through the buffered serve loop:
// every complete frame in the read buffer is answered inline, the
// responses leave in arrival order in one write per batch, the batch is
// flushed before every blocking read and on every exit path, and
// framing errors cut the connection only after earlier responses drain.

// pipelineQueryWire builds a query with the given ID.
func pipelineQueryWire(t *testing.T, id uint16) []byte {
	t.Helper()
	wire, err := (&dnswire.Message{
		Header: dnswire.Header{ID: id, RecursionDesired: true},
		Questions: []dnswire.Question{
			{Name: "www.site.example", Type: dnswire.TypeA, Class: dnswire.ClassIN},
		},
	}).Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// pipelineBurst frames queries with IDs 1..depth back to back.
func pipelineBurst(t *testing.T, depth int) []byte {
	t.Helper()
	var burst []byte
	for id := 1; id <= depth; id++ {
		burst = append(burst, frameTCP(pipelineQueryWire(t, uint16(id)))...)
	}
	return burst
}

// TestTCPPipelineInterleaved writes a burst of queries down one
// connection without waiting for responses, then collects them all:
// every query must be answered on that same connection, matched by
// message ID (responses may arrive in any order).
func TestTCPPipelineInterleaved(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const depth = 12
	burst := pipelineBurst(t, depth)
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}

	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := make(map[uint16]bool)
	for i := 0; i < depth; i++ {
		raw, err := readTCPResponse(conn)
		if err != nil {
			t.Fatalf("response %d/%d: %v", i+1, depth, err)
		}
		msg, err := dnswire.Unpack(raw)
		if err != nil {
			t.Fatalf("response %d unparseable: %v", i+1, err)
		}
		if msg.Header.RCode != dnswire.RCodeNoError || len(msg.Answers) != 1 {
			t.Fatalf("response %d: rcode=%v answers=%d", i+1, msg.Header.RCode, len(msg.Answers))
		}
		if got[msg.Header.ID] {
			t.Fatalf("duplicate response for ID %d", msg.Header.ID)
		}
		got[msg.Header.ID] = true
	}
	for id := uint16(1); id <= depth; id++ {
		if !got[id] {
			t.Errorf("query ID %d never answered", id)
		}
	}
}

// TestTCPPipelineDeeperThanCap sends 48 queries in one burst while
// reading concurrently — three times what the goroutine-per-query loop
// this one replaced allowed in flight: no depth stalls the connection,
// and every query is answered exactly once.
func TestTCPPipelineDeeperThanCap(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const depth = 48
	done := make(chan error, 1)
	go func() {
		burst := pipelineBurst(t, depth)
		_, err := conn.Write(burst)
		done <- err
	}()

	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	got := make(map[uint16]bool)
	for i := 0; i < depth; i++ {
		raw, err := readTCPResponse(conn)
		if err != nil {
			t.Fatalf("response %d/%d: %v", i+1, depth, err)
		}
		msg, err := dnswire.Unpack(raw)
		if err != nil {
			t.Fatal(err)
		}
		if got[msg.Header.ID] {
			t.Fatalf("duplicate response for ID %d", msg.Header.ID)
		}
		got[msg.Header.ID] = true
	}
	if len(got) != depth {
		t.Fatalf("answered %d distinct IDs, want %d", len(got), depth)
	}
	if err := <-done; err != nil {
		t.Fatalf("write side: %v", err)
	}
}

// TestTCPPipelineSlowReader holds off reading while the burst is
// served: responses queue in the socket buffers and must all arrive
// intact once the client starts draining.
func TestTCPPipelineSlowReader(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const depth = 8
	burst := pipelineBurst(t, depth)
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // let the server write first

	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := make(map[uint16]bool)
	for i := 0; i < depth; i++ {
		raw, err := readTCPResponse(conn)
		if err != nil {
			t.Fatalf("response %d/%d after slow start: %v", i+1, depth, err)
		}
		msg, err := dnswire.Unpack(raw)
		if err != nil {
			t.Fatalf("response frame corrupt: %v", err)
		}
		got[msg.Header.ID] = true
	}
	if len(got) != depth {
		t.Fatalf("answered %d distinct IDs, want %d", len(got), depth)
	}
}

// TestTCPPipelineBadPrefixMidStream follows valid pipelined queries
// with a corrupt length prefix: the earlier queries' responses drain
// before the connection is cut.
func TestTCPPipelineBadPrefixMidStream(t *testing.T) {
	for _, tc := range []struct {
		name   string
		prefix [2]byte
	}{
		{"zero", [2]byte{0, 0}},
		{"oversized", [2]byte{0xff, 0xff}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := testServer(t, "RR", nil)
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			const depth = 3
			burst := pipelineBurst(t, depth)
			burst = append(burst, tc.prefix[:]...)
			if _, err := conn.Write(burst); err != nil {
				t.Fatal(err)
			}

			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			got := make(map[uint16]bool)
			for i := 0; i < depth; i++ {
				raw, err := readTCPResponse(conn)
				if err != nil {
					t.Fatalf("response %d/%d should drain before the cut: %v", i+1, depth, err)
				}
				msg, err := dnswire.Unpack(raw)
				if err != nil {
					t.Fatal(err)
				}
				got[msg.Header.ID] = true
			}
			if len(got) != depth {
				t.Fatalf("answered %d distinct IDs before the cut, want %d", len(got), depth)
			}
			var one [1]byte
			if _, err := conn.Read(one[:]); err != io.EOF {
				t.Fatalf("read after bad prefix = %v, want EOF (connection cut)", err)
			}
		})
	}
}

// TestTCPPipelineUnderConnCap: pipelining multiplies throughput per
// connection but consumes exactly one semaphore slot. With the cap at
// 1, a pipelined connection serves its whole burst while a second
// connection waits, then gets served once the slot frees.
func TestTCPPipelineUnderConnCap(t *testing.T) {
	srv := testServerMaxTCP(t, 1)
	addr := srv.Addr().String()

	first, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()

	const depth = 6
	burst := pipelineBurst(t, depth)
	if _, err := first.Write(burst); err != nil {
		t.Fatal(err)
	}
	_ = first.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < depth; i++ {
		if _, err := readTCPResponse(first); err != nil {
			t.Fatalf("pipelined response %d under cap: %v", i+1, err)
		}
	}

	// The second connection handshakes in the backlog but is not
	// accepted while the first holds the only slot.
	second, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if _, err := second.Write(frameTCP(pipelineQueryWire(t, 99))); err != nil {
		t.Fatal(err)
	}
	_ = second.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if _, err := readTCPResponse(second); err == nil {
		t.Fatal("second connection served while the only slot was held")
	}

	first.Close()
	_ = second.SetReadDeadline(time.Now().Add(5 * time.Second))
	raw, err := readTCPResponse(second)
	if err != nil {
		t.Fatalf("second connection never served after the slot freed: %v", err)
	}
	msg, err := dnswire.Unpack(raw)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Header.ID != 99 || msg.Header.RCode != dnswire.RCodeNoError {
		t.Fatalf("id=%d rcode=%v, want 99/NOERROR", msg.Header.ID, msg.Header.RCode)
	}
}

// handConn is the server side of a hand-accepted connection: it counts
// the Write calls the stream loop makes, records the read deadlines it
// sets and, when set, lets a test step in on a Read.
type handConn struct {
	net.Conn
	writes atomic.Int32
	reads  atomic.Int32
	onRead func(c *handConn, p []byte) (int, error)

	mu            sync.Mutex
	readDeadlines []time.Time
}

func (c *handConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadlines = append(c.readDeadlines, t)
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

// deadlines returns the read deadlines set so far, in order.
func (c *handConn) deadlines() []time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.readDeadlines)
}

// waitDeadlines waits for the loop to have set n read deadlines and
// returns them.
func (c *handConn) waitDeadlines(t *testing.T, n int) []time.Time {
	t.Helper()
	for start := time.Now(); time.Since(start) < 5*time.Second; time.Sleep(time.Millisecond) {
		if d := c.deadlines(); len(d) >= n {
			return d
		}
	}
	t.Fatalf("read deadlines %v, want %d", c.deadlines(), n)
	return nil
}

func (c *handConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *handConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	if c.onRead != nil {
		return c.onRead(c, p)
	}
	return c.Conn.Read(p)
}

// handAccept returns both ends of a fresh loopback TCP connection, the
// server end wrapped and not yet served.
func handAccept(t testing.TB) (client net.Conn, server *handConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	raw, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = raw.Close() })
	return client, &handConn{Conn: raw}
}

// serveByHand runs the stream loop on conn with the given framer and
// closes it afterwards, as the accept loop's goroutine does; the channel
// closes when it is done.
func serveByHand(srv *Server, conn net.Conn, f *framer) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		from := netip.AddrFrom4([4]byte{127, 0, 0, 1}) // a socket pair's peer has no address
		if a, ok := conn.RemoteAddr().(*net.TCPAddr); ok {
			from = a.AddrPort().Addr()
		}
		srv.serveStream(conn, from, f)
		_ = conn.Close()
	}()
	return done
}

// readInOrder reads depth responses and requires IDs 1..depth in that
// order, each a NOERROR answer.
func readInOrder(t *testing.T, conn net.Conn, depth int) {
	t.Helper()
	for id := 1; id <= depth; id++ {
		raw, err := readTCPResponse(conn)
		if err != nil {
			t.Fatalf("response %d/%d: %v", id, depth, err)
		}
		msg, err := dnswire.Unpack(raw)
		if err != nil {
			t.Fatalf("response %d unparseable: %v", id, err)
		}
		if int(msg.Header.ID) != id || msg.Header.RCode != dnswire.RCodeNoError || len(msg.Answers) != 1 {
			t.Fatalf("response %d: id=%d rcode=%v answers=%d, want in-order NOERROR answers",
				id, msg.Header.ID, msg.Header.RCode, len(msg.Answers))
		}
	}
}

// TestTCPPipelineCoalescesWrites: a burst that arrives in one segment
// is answered in arrival order with a write per batch, not per query —
// one flush before the loop blocks again, plus one each time the 4 KiB
// write buffer fills (the 200-deep burst fills it twice over).
func TestTCPPipelineCoalescesWrites(t *testing.T) {
	for _, tc := range []struct{ depth, maxWrites int }{{32, 4}, {200, 16}} {
		srv, _ := testServerNoStart(t, "RR")
		client, server := handAccept(t)
		if _, err := client.Write(pipelineBurst(t, tc.depth)); err != nil {
			t.Fatal(err)
		}
		done := serveByHand(srv, server, tcpFramer)
		_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
		readInOrder(t, client, tc.depth)
		if got := int(server.writes.Load()); got > tc.maxWrites {
			t.Errorf("%d queries answered in %d writes, want ≤ %d", tc.depth, got, tc.maxWrites)
		}
		_ = client.Close()
		<-done
	}
}

// TestTCPPipelineSplitFrame: a whole query followed by the prefix and
// half the body of a second. The first answer must not wait in the
// write buffer for the second frame to complete.
func TestTCPPipelineSplitFrame(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	second := frameTCP(pipelineQueryWire(t, 2))
	cut := 2 + (len(second)-2)/2
	if _, err := conn.Write(append(frameTCP(pipelineQueryWire(t, 1)), second[:cut]...)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	readInOrder(t, conn, 1) // before the rest of the second frame is sent

	if _, err := conn.Write(second[cut:]); err != nil {
		t.Fatal(err)
	}
	raw, err := readTCPResponse(conn)
	if err != nil {
		t.Fatalf("second answer after its frame completed: %v", err)
	}
	if msg, err := dnswire.Unpack(raw); err != nil || msg.Header.ID != 2 {
		t.Fatalf("second answer: %+v, %v", msg, err)
	}
}

// TestTCPPipelineLoneQueries: a client that keeps one query in flight
// gets each answer promptly, with nothing behind it to trigger a flush.
func TestTCPPipelineLoneQueries(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for id := uint16(1); id <= 3; id++ {
		if _, err := conn.Write(frameTCP(pipelineQueryWire(t, id))); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(time.Second))
		raw, err := readTCPResponse(conn)
		if err != nil {
			t.Fatalf("lone query %d: %v", id, err)
		}
		if msg, err := dnswire.Unpack(raw); err != nil || msg.Header.ID != id {
			t.Fatalf("lone query %d answered with %+v, %v", id, msg, err)
		}
	}
}

// TestTCPPipelineShutdownAnswersBuffered: Shutdown lands after a burst
// was read from the socket and before any of it was handled. Every
// query of the burst is answered, nothing more is read, and the
// connection closes.
func TestTCPPipelineShutdownAnswersBuffered(t *testing.T) {
	srv, _ := testServerNoStart(t, "RR")
	client, server := handAccept(t)
	const depth = 8
	burst := pipelineBurst(t, depth)
	server.onRead = func(c *handConn, p []byte) (int, error) {
		if c.reads.Load() > 1 {
			t.Error("the loop read from the socket after Shutdown")
			return c.Conn.Read(p)
		}
		n, err := io.ReadAtLeast(c.Conn, p, len(burst))
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		return n, err
	}
	if _, err := client.Write(burst); err != nil {
		t.Fatal(err)
	}
	done := serveByHand(srv, server, tcpFramer)
	_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
	readInOrder(t, client, depth)
	var one [1]byte
	if _, err := client.Read(one[:]); err != io.EOF {
		t.Fatalf("read after the drained burst = %v, want EOF", err)
	}
	<-done
}

// TestTCPPipelineUnanswerableMidStream: a message the handler drops (a
// response, QR set) ends the connection, but the three answers batched
// ahead of it are flushed first.
func TestTCPPipelineUnanswerableMidStream(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const depth = 3
	response := pipelineQueryWire(t, depth+1)
	response[2] |= 0x80 // QR
	if _, err := conn.Write(append(pipelineBurst(t, depth), frameTCP(response)...)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	readInOrder(t, conn, depth)
	var one [1]byte
	if _, err := conn.Read(one[:]); err != io.EOF {
		t.Fatalf("read after the unanswerable message = %v, want EOF (connection cut)", err)
	}
}

// TestStreamRearmsAfterPipelinedBatch: the idle timeout runs from the
// last answer, whatever the number of requests a batch held — two
// pipelined queries answered, the loop arms a fresh deadline before it
// waits again.
func TestStreamRearmsAfterPipelinedBatch(t *testing.T) {
	srv, _ := testServerNoStart(t, "RR")
	client, server := handAccept(t)
	done := serveByHand(srv, server, tcpFramer)
	server.waitDeadlines(t, 1) // idle, waiting for the first query
	_ = client.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Write(append(frameTCP(pipelineQueryWire(t, 1)), frameTCP(pipelineQueryWire(t, 2))...)); err != nil {
		t.Fatal(err)
	}
	readInOrder(t, client, 2)
	if d := server.waitDeadlines(t, 2); !d[1].After(d[0]) {
		t.Errorf("read deadlines %v: the idle deadline after the batch is not a fresh one", d)
	}
	_ = client.Close()
	<-done
}
