package loadgen

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"time"
)

// ReportStats is what a Reporter saw on the server's report socket.
type ReportStats struct {
	Lines   int             // lines sent and answered
	Failed  int             // of those, answered anything but OK
	RTT     []time.Duration // one sample per line: write to reply
	Elapsed time.Duration
}

// Reporter plays the Web servers' side of the feedback channel: on a
// fixed period it sends a batch of report lines over one connection to
// the server's report socket and reads each reply.
type Reporter struct {
	conn  net.Conn
	stop  chan struct{}
	done  chan struct{}
	stats ReportStats
	err   error
}

// StartReporter connects to the report socket and sends lines(tick)
// every period, starting at once, until Stop. The server opens its
// report socket a moment after it starts answering queries, so a
// refused connection is retried for up to two seconds.
func StartReporter(addr string, period time.Duration, lines func(tick int) []string) (*Reporter, error) {
	var conn net.Conn
	for begin := time.Now(); ; time.Sleep(time.Millisecond) {
		var err error
		if conn, err = net.DialTimeout("tcp", addr, time.Second); err == nil {
			break
		}
		if time.Since(begin) > 2*time.Second {
			return nil, fmt.Errorf("loadgen: report socket: %w", err)
		}
	}
	r := &Reporter{conn: conn, stop: make(chan struct{}), done: make(chan struct{})}
	go r.loop(period, lines)
	return r, nil
}

func (r *Reporter) loop(period time.Duration, lines func(int) []string) {
	defer close(r.done)
	rd := bufio.NewReader(r.conn)
	start := time.Now()
	defer func() { r.stats.Elapsed = time.Since(start) }()
	tick := time.NewTicker(period)
	defer tick.Stop()
	for n := 0; ; n++ {
		for _, line := range lines(n) {
			sent := time.Now()
			_ = r.conn.SetDeadline(sent.Add(time.Second))
			if _, err := r.conn.Write([]byte(line + "\n")); err != nil {
				r.err = fmt.Errorf("loadgen: report %q: %w", line, err)
				return
			}
			reply, err := rd.ReadString('\n')
			if err != nil {
				r.err = fmt.Errorf("loadgen: report %q: %w", line, err)
				return
			}
			r.stats.Lines++
			r.stats.RTT = append(r.stats.RTT, time.Since(sent))
			if !strings.HasPrefix(reply, "OK") {
				r.stats.Failed++
			}
		}
		select {
		case <-r.stop:
			return
		case <-tick.C:
		}
	}
}

// Stop ends the reporter and returns what it measured once its
// goroutine has exited.
func (r *Reporter) Stop() (ReportStats, error) {
	close(r.stop)
	<-r.done
	r.conn.Close()
	return r.stats, r.err
}

// Heartbeat returns the lines that keep n backends alive: without an
// ALIVE per server inside the server's liveness window (3 × 8 s by
// default) every backend is marked down and every answer is SERVFAIL.
func Heartbeat(n int) func(int) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("ALIVE %d", i)
	}
	return func(int) []string { return lines }
}

// Churn returns the lines of the paper's feedback loop for one period
// of the given length: a HITS report per domain in proportion to its
// weight, the ROLL that closes the estimation interval, and one ALARM
// that alternately raises and clears the alarm of one server, cycling
// over all n. Every ROLL installs new weights and every ALARM bumps
// the scheduler's state version.
func Churn(weights []float64, n int, period time.Duration, hitsPerSecond float64) func(int) []string {
	secs := period.Seconds()
	return func(tick int) []string {
		lines := make([]string, 0, len(weights)+2)
		for d, w := range weights {
			lines = append(lines, fmt.Sprintf("HITS %d %.3f", d, w*hitsPerSecond*secs))
		}
		lines = append(lines, fmt.Sprintf("ROLL %g", secs))
		return append(lines, fmt.Sprintf("ALARM %d %d", tick/2%n, 1-tick%2))
	}
}
