package dnsserver

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/netip"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dnslb/internal/core"
	"dnslb/internal/dnsclient"
	"dnslb/internal/metrics"
	"dnslb/internal/simcore"
)

// sendReports writes lines and returns each response line.
func sendReports(t *testing.T, addr string, lines ...string) []string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	r := bufio.NewReader(conn)
	var out []string
	for _, line := range lines {
		if _, err := fmt.Fprintln(conn, line); err != nil {
			t.Fatal(err)
		}
		resp, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, resp)
	}
	return out
}

func TestReportAlarmProtocol(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)

	resp := sendReports(t, srv.ReportAddr().String(), "ALARM 2 1")
	if resp[0] != "OK\n" {
		t.Fatalf("response = %q", resp[0])
	}
	if !srv.policy.State().Snapshot().Alarmed(2) {
		t.Error("alarm not applied")
	}
	resp = sendReports(t, srv.ReportAddr().String(), "ALARM 2 0")
	if resp[0] != "OK\n" || srv.policy.State().Snapshot().Alarmed(2) {
		t.Error("alarm not cleared")
	}
}

func TestReportHitsAndRoll(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)

	lines := []string{"HITS 7 900"}
	for j := 0; j < 20; j++ {
		if j != 7 {
			lines = append(lines, fmt.Sprintf("HITS %d 10", j))
		}
	}
	lines = append(lines, "ROLL 60")
	for i, resp := range sendReports(t, srv.ReportAddr().String(), lines...) {
		if resp != "OK\n" {
			t.Fatalf("line %d response = %q", i, resp)
		}
	}
	// Weights now reflect the reported skew: domain 7 dominates.
	if srv.policy.State().Snapshot().Weight(7) < 0.5 {
		t.Errorf("estimated weight of domain 7 = %v, want dominant", srv.policy.State().Snapshot().Weight(7))
	}
}

func TestReportErrors(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)
	resps := sendReports(t, srv.ReportAddr().String(),
		"BOGUS 1 2",
		"ALARM x 1",
		"ALARM 1 7",
		"ALARM 1",
		"HITS 1 -5",
		"HITS 1",
		"ROLL 0",
		"ROLL",
		"HITS 0 NaN",
		"HITS 0 Inf",
		"ROLL NaN",
		"HITS 20 10", // the test server has 20 domains
		"HITS -1 10",
	)
	for i, resp := range resps {
		if len(resp) < 3 || resp[:3] != "ERR" {
			t.Errorf("line %d: response %q, want ERR", i, resp)
		}
	}
}

// TestReportNaNCannotPoisonEstimator: one non-finite hit count used to
// turn the EWMA rate NaN for good, so that every later ROLL failed (the
// weights froze) and every checkpoint failed (JSON has no NaN). The
// report parser refuses the line, and the estimator refuses the value
// when it arrives some other way.
func TestReportNaNCannotPoisonEstimator(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)
	addr := srv.ReportAddr().String()
	sendReports(t, addr, "HITS 0 NaN")
	rejected := srv.eng.EstimatorRejected()
	srv.RecordHits(0, math.NaN())
	if srv.eng.EstimatorRejected() != rejected+1 {
		t.Error("estimator accepted a NaN hit count")
	}
	if resp := sendReports(t, addr, "HITS 1 50", "ROLL 8"); resp[1] != "OK\n" {
		t.Fatalf("ROLL after a NaN report answered %q", resp[1])
	}
	for j := 0; j < 20; j++ {
		if w := srv.policy.State().Snapshot().Weight(j); math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatalf("domain %d weight %v", j, w)
		}
	}
	if err := srv.WriteCheckpoint(filepath.Join(t.TempDir(), "ckpt.json")); err != nil {
		t.Fatalf("checkpoint after a NaN report: %v", err)
	}
}

// FuzzReportLines fuzzes the report socket's input, the one parser that
// faces unauthenticated input: the bytes a client sends — up to eight
// lines and what follows the last of them — go through exchangeReport on
// a fresh server (New binds nothing), under either estimator kind, the way
// the stream loop feeds it. Each complete non-blank line must get one
// reply, a single line starting OK or ERR, without a panic; bytes after
// the last newline get none and change nothing; a line too long is
// answered "ERR line too long" and nothing follows it. No sequence may
// leave a weight non-finite or the state unwritable as a checkpoint.
// Each seed runs with its last line torn and terminated.
func FuzzReportLines(f *testing.F) {
	for _, seed := range []string{
		"ALIVE 0\nALARM 1 1\nALARM 1 0",
		"HITS 3 120\nHITS 7 4.5\nROLL 8",
		"HITS 0 NaN\nROLL 8",
		"HITS 0 1e300\nROLL NaN\nROLL 1e-300",
		"HITS 0 1e308\nHITS 1 1e308\nROLL 1\nROLL 1", // forecast errors sum past MaxFloat64
		"JOIN 10.0.0.99 120\nDRAIN 7",
		"REPL {}",
		"HITS 20 10\nHITS -1 10\nROLL Inf",
		"BOGUS 1 2\nALARM x 1",
	} {
		for _, predictive := range []bool{false, true} {
			f.Add(seed, predictive)
			f.Add(seed+"\n", predictive)
		}
	}
	f.Add("ALIVE 0\r\n \n\t\n"+strings.Repeat("A", maxReportLine)+"\nALIVE 1\n", false)
	f.Fuzz(func(t *testing.T, input string, predictive bool) {
		srv := fuzzReportServer(t, predictive)
		defer srv.Close()
		for i, lines := 0, 0; i < len(input); i++ {
			if input[i] == '\n' {
				if lines++; lines == 8 {
					input = input[:i+1]
				}
			}
		}
		var out bytes.Buffer
		b := reportFramer.pool.New().(*streamBufs)
		b.bw.Reset(&out)
		want, tooLong := 0, false
		for rest := []byte(input); ; {
			buf := rest[:min(len(rest), maxReportLine)]
			version := srv.policy.State().Snapshot().Version()
			est, _ := srv.eng.EstimatorState()
			written := out.Len() + b.bw.Buffered()
			n := srv.exchangeReport(b, buf)
			if n == 0 {
				tooLong = true
				if bytes.IndexByte(buf, '\n') >= 0 {
					t.Fatalf("the framer ended the connection on %q", buf)
				}
				break
			}
			if n > len(buf) {
				after, _ := srv.eng.EstimatorState()
				if out.Len()+b.bw.Buffered() != written || srv.policy.State().Snapshot().Version() != version ||
					!reflect.DeepEqual(est, after) {
					t.Fatalf("the unterminated tail %q was applied", buf)
				}
				break
			}
			if len(bytes.TrimSpace(buf[:n])) > 0 {
				want++
			}
			rest = rest[n:]
		}
		if err := b.bw.Flush(); err != nil {
			t.Fatal(err)
		}
		replies := strings.SplitAfter(out.String(), "\n")
		if last := replies[len(replies)-1]; last != "" {
			t.Fatalf("reply %q does not end its line", last)
		}
		replies = replies[:len(replies)-1]
		if tooLong {
			if len(replies) == 0 || replies[len(replies)-1] != "ERR line too long\n" {
				t.Fatalf("a line too long answered %q", replies)
			}
			replies = replies[:len(replies)-1]
		}
		if len(replies) != want {
			t.Fatalf("%d replies to %d lines of %q: %q", len(replies), want, input, replies)
		}
		for _, reply := range replies {
			if !(reply == "OK\n" || strings.HasPrefix(reply, "OK ") || strings.HasPrefix(reply, "ERR ")) ||
				strings.ContainsRune(reply, '\r') {
				t.Fatalf("reply %q to %q is not one OK or ERR line", reply, input)
			}
		}
		for j := 0; j < srv.policy.State().Snapshot().Domains(); j++ {
			if w := srv.policy.State().Snapshot().Weight(j); math.IsNaN(w) || math.IsInf(w, 0) {
				t.Fatalf("domain %d weight %v after %q", j, w, input)
			}
		}
		if _, err := json.Marshal(srv.Checkpoint()); err != nil {
			t.Fatalf("checkpoint after %q: %v", input, err)
		}
	})
}

// fuzzReportServer is a 7-server, 20-domain server that binds nothing.
func fuzzReportServer(t testing.TB, predictive bool) *Server {
	cluster, err := core.ScaledCluster(7, 50, 500)
	if err != nil {
		t.Fatal(err)
	}
	state, err := core.NewState(cluster, 20)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := core.NewPolicy(core.PolicyConfig{Name: "DRR2-TTL/S_K", State: state, Rand: simcore.NewStream(1, "report")})
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]netip.Addr, 7)
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)})
	}
	cfg := Config{Zone: "www.site.example", ServerAddrs: addrs, Policy: policy}
	if predictive {
		cfg.Estimator = core.EstimatorPredictive
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestReportDrivenSchedulingEndToEnd(t *testing.T) {
	// Alarm a server over the report socket; DNS answers must avoid it.
	srv, _ := testServer(t, "RR", nil)
	sendReports(t, srv.ReportAddr().String(), "ALARM 0 1")

	r := &dnsclient.Resolver{Server: srv.Addr().String(), Timeout: 2 * time.Second}
	excluded := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	for i := 0; i < 14; i++ {
		answers, err := r.LookupA(t.Context(), "www.site.example")
		if err != nil {
			t.Fatal(err)
		}
		if answers[0].Addr == excluded {
			t.Fatal("alarmed server still answered")
		}
	}
}

func roundTrip(t *testing.T, conn net.Conn, line string) string {
	t.Helper()
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := fmt.Fprintln(conn, line); err != nil {
		t.Fatal(err)
	}
	resp, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestReportAlarmOutOfRange(t *testing.T) {
	// An out-of-range server index must come back as ERR over the wire,
	// not be silently swallowed.
	srv, _ := testServer(t, "RR", nil)
	resps := sendReports(t, srv.ReportAddr().String(), "ALARM 99 1", "ALARM -1 0")
	for i, resp := range resps {
		if len(resp) < 3 || resp[:3] != "ERR" {
			t.Errorf("line %d: response %q, want ERR", i, resp)
		}
	}
}

func TestReportAliveProtocol(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)
	resps := sendReports(t, srv.ReportAddr().String(),
		"ALIVE 3",
		"ALIVE 99",
		"ALIVE x",
		"ALIVE",
	)
	if resps[0] != "OK\n" {
		t.Errorf("ALIVE 3 response = %q", resps[0])
	}
	for i, resp := range resps[1:] {
		if len(resp) < 3 || resp[:3] != "ERR" {
			t.Errorf("line %d: response %q, want ERR", i+1, resp)
		}
	}
}

func TestReportOversizedLine(t *testing.T) {
	// A line beyond bufio.Scanner's 64 KiB token limit must get the
	// client disconnected with an error, and the listener must keep
	// serving new connections afterwards.
	srv, _ := testServer(t, "RR", nil)

	conn, err := net.Dial("tcp", srv.ReportAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	huge := make([]byte, 80*1024)
	for i := range huge {
		huge[i] = 'A'
	}
	huge = append(huge, '\n')
	if _, err := conn.Write(huge); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	resp, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) < 3 || resp[:3] != "ERR" {
		t.Errorf("oversized line response = %q, want ERR", resp)
	}
	// The connection is gone after the protocol violation.
	if _, err := r.ReadString('\n'); err == nil {
		t.Error("connection still open after oversized line")
	}
	// Fresh connections still work.
	if resp := sendReports(t, srv.ReportAddr().String(), "ALARM 1 1"); resp[0] != "OK\n" {
		t.Errorf("post-violation response = %q", resp[0])
	}
}

func TestReportTruncatedWrite(t *testing.T) {
	// A client that dies mid-line must not wedge the listener or apply
	// the partial command.
	srv, _ := testServer(t, "RR", nil)

	conn, err := net.Dial("tcp", srv.ReportAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("ALARM 2")); err != nil { // no newline
		t.Fatal(err)
	}
	_ = conn.Close()

	// The listener still answers other clients, and the torn line was
	// parsed as an (incomplete) command, not applied as an alarm.
	deadline := time.Now().Add(2 * time.Second)
	for srv.policy.State().Snapshot().Alarmed(2) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.policy.State().Snapshot().Alarmed(2) {
		t.Error("truncated ALARM line was applied")
	}
	if resp := sendReports(t, srv.ReportAddr().String(), "ALARM 2 1"); resp[0] != "OK\n" {
		t.Errorf("response after truncated client = %q", resp[0])
	}
}

func TestReportConcurrentBackends(t *testing.T) {
	// Many backends reporting ALARM/HITS/ROLL/ALIVE at once: every line
	// is answered and the listener state stays consistent (run with
	// -race to check for data races).
	srv, _ := testServer(t, "RR", nil)

	const backends = 8
	var wg sync.WaitGroup
	errc := make(chan error, backends)
	for b := 0; b < backends; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", srv.ReportAddr().String())
			if err != nil {
				errc <- err
				return
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			r := bufio.NewReader(conn)
			for i := 0; i < 50; i++ {
				lines := []string{
					fmt.Sprintf("ALIVE %d", b%7),
					fmt.Sprintf("ALARM %d %d", b%7, i%2),
					fmt.Sprintf("HITS %d 10", i%20),
					"ROLL 8",
				}
				for _, line := range lines {
					if _, err := fmt.Fprintln(conn, line); err != nil {
						errc <- err
						return
					}
					resp, err := r.ReadString('\n')
					if err != nil {
						errc <- err
						return
					}
					if resp != "OK\n" {
						errc <- fmt.Errorf("backend %d: %q -> %q", b, line, resp)
						return
					}
				}
			}
		}(b)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestReportTornLineNotApplied: bytes after the last newline when the
// client closes are no request. A torn "ALARM 2 1" raises no alarm, and
// "HITS 3 12", the head of "HITS 3 1200", records no hits. Neither is
// answered.
func TestReportTornLineNotApplied(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)
	for _, torn := range []string{"ALARM 2 1", "HITS 3 12"} {
		conn, err := net.Dial("tcp", srv.ReportAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write([]byte(torn)); err != nil {
			t.Fatal(err)
		}
		_ = conn.(*net.TCPConn).CloseWrite()
		// The server closes its end once it has read the end of the input.
		out, err := io.ReadAll(conn)
		_ = conn.Close()
		if err != nil || len(out) != 0 {
			t.Errorf("torn line %q answered %q (%v)", torn, out, err)
		}
	}
	if srv.policy.State().Snapshot().Alarmed(2) {
		t.Error("the torn ALARM line was applied")
	}
	st, ok := srv.eng.EstimatorState()
	if !ok {
		t.Fatal("the server has no estimator")
	}
	if st.Counts[3] != 0 {
		t.Errorf("the torn HITS line recorded %v hits", st.Counts[3])
	}
}

// TestReportRepliesBatched: k lines that arrive in one write get k
// replies, in order, in fewer than k writes.
func TestReportRepliesBatched(t *testing.T) {
	srv, _ := testServerNoStart(t, "RR")
	client, server := handAccept(t)
	done := serveByHand(srv, server, reportFramer)
	const k = 16
	var lines []byte
	var want []string
	for i := range k {
		if i%2 == 0 {
			lines = fmt.Appendf(lines, "ALIVE %d\n", i%7)
			want = append(want, "OK\n")
		} else {
			lines = fmt.Appendf(lines, "ALIVE %d\n", 100+i)
			want = append(want, fmt.Sprintf("ERR server index %d out of range [0,7)\n", 100+i))
		}
	}
	_ = client.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Write(lines); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(client)
	for i, w := range want {
		if got, err := br.ReadString('\n'); err != nil || got != w {
			t.Fatalf("reply %d = %q (%v), want %q", i, got, err, w)
		}
	}
	_ = client.Close()
	<-done
	if w := server.writes.Load(); w >= k {
		t.Errorf("%d replies took %d writes", k, w)
	}
}

// TestReportIdleConnHasNoDeadline: a report connection may sit idle for
// good, so whole lines arm no read deadline; a line that has begun must
// arrive within tcpIdleTimeout, and once it has, the deadline is lifted.
func TestReportIdleConnHasNoDeadline(t *testing.T) {
	srv, _ := testServerNoStart(t, "RR")
	client, server := handAccept(t)
	done := serveByHand(srv, server, reportFramer)
	_ = client.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(client)
	ask := func(line string) {
		t.Helper()
		if _, err := io.WriteString(client, line); err != nil {
			t.Fatal(err)
		}
		if got, err := br.ReadString('\n'); err != nil || got != "OK\n" {
			t.Fatalf("%q answered %q (%v)", line, got, err)
		}
	}

	// The second reply comes after the loop blocked for its line.
	ask("ALIVE 0\n")
	ask("ALIVE 1\n")
	if d := server.deadlines(); len(d) != 0 {
		t.Fatalf("an idle report connection armed read deadlines %v", d)
	}

	sent := time.Now()
	if _, err := io.WriteString(client, "ALIVE"); err != nil {
		t.Fatal(err)
	}
	d := server.waitDeadlines(t, 1)
	if until := d[0].Sub(sent); until < tcpIdleTimeout-time.Second || until > tcpIdleTimeout+time.Second {
		t.Errorf("a begun line has %v to arrive, want %v", until, tcpIdleTimeout)
	}
	ask(" 2\n")
	if d := server.waitDeadlines(t, 2); len(d) != 2 || !d[1].IsZero() {
		t.Errorf("read deadlines %v, want the request timeout and then none", d)
	}
	_ = client.Close()
	<-done
}

// TestReportShutdownAppliesNoBufferedLine: a line applied before Shutdown
// begins is answered; lines already read from the socket when it begins
// are neither applied nor answered.
func TestReportShutdownAppliesNoBufferedLine(t *testing.T) {
	srv, state := testServerNoStart(t, "RR")
	client, server := handAccept(t)
	server.onRead = func(c *handConn, p []byte) (int, error) {
		n, err := c.Conn.Read(p)
		if bytes.Contains(p[:n], []byte("ALARM 2 1")) {
			_ = srv.Close()
		}
		return n, err
	}
	done := serveByHand(srv, server, reportFramer)
	_ = client.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(client)
	if _, err := io.WriteString(client, "ALARM 1 1\n"); err != nil {
		t.Fatal(err)
	}
	if got, err := br.ReadString('\n'); err != nil || got != "OK\n" {
		t.Fatalf("ALARM 1 1 answered %q (%v)", got, err)
	}
	if _, err := io.WriteString(client, "ALARM 2 1\nALARM 3 1\n"); err != nil {
		t.Fatal(err)
	}
	if rest, err := io.ReadAll(br); err != nil || len(rest) != 0 {
		t.Errorf("after Shutdown the connection answered %q (%v), want EOF", rest, err)
	}
	<-done
	sn := state.Snapshot()
	if !sn.Alarmed(1) || sn.Alarmed(2) || sn.Alarmed(3) {
		t.Errorf("alarms 1, 2, 3 = %v, %v, %v; want only the line before Shutdown applied", sn.Alarmed(1), sn.Alarmed(2), sn.Alarmed(3))
	}
}

// TestReportMetrics: the report series count lines by result and
// connections by how they ended — a line too long tears its connection
// down as an error, a client that hangs up does not.
func TestReportMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, _ := testServerCfg(t, "RR", func(cfg *Config) { cfg.Metrics = reg })
	addr := srv.ReportAddr().String()
	sendReports(t, addr, "ALIVE 0", "ALIVE 99", "ALARM 1 1")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte(strings.Repeat("A", maxReportLine) + "\n")); err != nil {
		t.Fatal(err)
	}
	if resp, err := bufio.NewReader(conn).ReadString('\n'); err != nil || resp != "ERR line too long\n" {
		t.Fatalf("a line too long answered %q (%v)", resp, err)
	}
	_ = conn.Close()
	want := map[string]float64{
		`dnslb_report_lines_total{status="ok"}`:    2,
		`dnslb_report_lines_total{status="error"}`: 1,
		`dnslb_report_conn_opened_total`:           2,
		`dnslb_report_conn_closed_total`:           2,
		`dnslb_report_conn_errors_total`:           1,
	}
	waitCond(t, 5*time.Second, func() bool { return srv.report.closed.Load() == 2 }, "report connections never counted closed")
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for series, v := range want {
		if got := seriesValue(t, text.String(), series); got != v {
			t.Errorf("%s = %v, want %v", series, got, v)
		}
	}
}
