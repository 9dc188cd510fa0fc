package dnsserver

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"strconv"
	"strings"

	"dnslb/internal/sock"
)

// The report socket (Config.ReportAddr) accepts plain-text load reports
// from Web servers and feeds them into the server's alarm, liveness, and
// estimation machinery — the asynchronous feedback channel of the paper,
// realized as a trivial line protocol:
//
//	ALIVE <serverIndex>\n              heartbeat (proof of life)
//	ALARM <serverIndex> <0|1>\n        alarm / normal signal
//	HITS <domainIndex> <count>\n       per-domain hits since last report
//	ROLL <intervalSeconds>\n           close an estimation interval
//	JOIN <ipv4> <capacity>\n           self-register (answered "OK <index>")
//	DRAIN <serverIndex>\n              gracefully retire a server
//	REPL <delta-json>\n                merge a peer replica's soft-state delta
//
// Each accepted line is answered with "OK\n" ("OK <index>\n" for JOIN),
// errors with "ERR <msg>\n". ALIVE, ALARM and JOIN also feed the liveness
// monitor when one is configured (see livenessMonitor). JOIN and
// DRAIN are the dynamic-membership verbs: a backend can admit itself on
// startup and retire itself on shutdown without an operator config
// reload. REPL is the replication transport (internal/replication):
// peer replicas reuse this socket so link health, metrics, and
// hardening are shared with the backend report path.
//
// The socket runs on the stream loop (serve.go) like DNS-over-TCP and DoH,
// with their connection cap, batched replies and stop path, behind the
// framer exchangeReport: a request is a line ending in '\n', trimmed of
// CR and blanks, a blank one skipped; bytes after the last '\n' are never
// applied; a line over maxReportLine is answered "ERR line too long" and
// the connection closed. There is no idle timeout — a backend that
// reports once a minute keeps its connection — but a line once begun must
// arrive within tcpIdleTimeout. After Shutdown begins no line is applied.

// maxReportLine bounds a report line with its '\n': bufio.Scanner's token
// limit, which replication's deltas are sized under.
const maxReportLine = bufio.MaxScanTokenSize

var reportFramer = &framer{(*Server).exchangeReport, 0, tcpIdleTimeout, streamPool(maxReportLine)}

// ReportAddr returns the bound report-socket address, or the zero
// AddrPort when none is configured (valid after Start).
func (s *Server) ReportAddr() netip.AddrPort {
	if s.reportLn == nil {
		return netip.AddrPort{}
	}
	return s.reportLn.Addr()
}

// serveReportConn serves one report connection, counted in s.report.
func (s *Server) serveReportConn(conn *sock.Conn) {
	s.report.opened.Add(1)
	defer s.report.closed.Add(1)
	if s.serveStream(conn, conn.Peer.Addr(), reportFramer) != nil {
		s.report.connErrors.Add(1)
	}
}

// exchangeReport is the report-line framer: it applies the line at the
// head of buf and writes its one reply line.
func (s *Server) exchangeReport(b *streamBufs, buf []byte) int {
	i := bytes.IndexByte(buf, '\n')
	if i < 0 {
		if len(buf) < maxReportLine {
			return len(buf) + 1
		}
		s.report.connErrors.Add(1)
		_, _ = b.bw.WriteString("ERR line too long\n")
		return 0
	}
	if s.stopping() {
		return 0
	}
	line := bytes.TrimSpace(buf[:i])
	if len(line) == 0 {
		return i + 1
	}
	reply, err := s.applyReport(string(line))
	if err != nil {
		s.report.err.Add(1)
		reply = "ERR " + err.Error()
	} else {
		s.report.ok.Add(1)
		reply = strings.TrimSuffix("OK "+reply, " ") // "OK" alone without a payload
	}
	_, _ = b.bw.WriteString(reply + "\n")
	return i + 1
}

// applyReport parses and executes one report line, returning the reply
// payload to append after "OK" (usually empty).
func (s *Server) applyReport(line string) (string, error) {
	fields := strings.Fields(line)
	cmd := strings.ToUpper(fields[0])
	switch cmd {
	case "ALIVE":
		if len(fields) != 2 {
			return "", fmt.Errorf("ALIVE wants 1 arg, got %d", len(fields)-1)
		}
		server, err := strconv.Atoi(fields[1])
		if err != nil {
			return "", fmt.Errorf("bad server index %q", fields[1])
		}
		if server < 0 || server >= s.Servers() {
			return "", fmt.Errorf("server index %d out of range [0,%d)", server, s.Servers())
		}
		s.liveness.Touch(server)
		return "", nil
	case "ALARM":
		if len(fields) != 3 {
			return "", fmt.Errorf("ALARM wants 2 args, got %d", len(fields)-1)
		}
		server, err := strconv.Atoi(fields[1])
		if err != nil {
			return "", fmt.Errorf("bad server index %q", fields[1])
		}
		on, err := strconv.Atoi(fields[2])
		if err != nil || (on != 0 && on != 1) {
			return "", fmt.Errorf("bad alarm flag %q", fields[2])
		}
		if err := s.eng.SetAlarm(server, on == 1); err != nil {
			return "", err
		}
		s.liveness.Touch(server)
		return "", nil
	case "HITS":
		if len(fields) != 3 {
			return "", fmt.Errorf("HITS wants 2 args, got %d", len(fields)-1)
		}
		domain, err := strconv.Atoi(fields[1])
		if err != nil {
			return "", fmt.Errorf("bad domain index %q", fields[1])
		}
		if n := s.policy.State().Snapshot().Domains(); domain < 0 || domain >= n {
			return "", fmt.Errorf("domain index %d out of range [0,%d)", domain, n)
		}
		count, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || !(count >= 0) || math.IsInf(count, 1) {
			return "", fmt.Errorf("bad hit count %q", fields[2])
		}
		s.RecordHits(domain, count)
		return "", nil
	case "ROLL":
		if len(fields) != 2 {
			return "", fmt.Errorf("ROLL wants 1 arg, got %d", len(fields)-1)
		}
		interval, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || !(interval > 0) || math.IsInf(interval, 1) {
			return "", fmt.Errorf("bad interval %q", fields[1])
		}
		return "", s.eng.RollEstimates(interval)
	case "JOIN":
		if len(fields) != 3 {
			return "", fmt.Errorf("JOIN wants 2 args, got %d", len(fields)-1)
		}
		addr, err := netip.ParseAddr(fields[1])
		if err != nil {
			return "", fmt.Errorf("bad server address %q", fields[1])
		}
		capacity, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return "", fmt.Errorf("bad capacity %q", fields[2])
		}
		idx, err := s.Join(addr, capacity)
		if err != nil {
			return "", err
		}
		s.liveness.Touch(idx)
		return strconv.Itoa(idx), nil
	case "DRAIN":
		if len(fields) != 2 {
			return "", fmt.Errorf("DRAIN wants 1 arg, got %d", len(fields)-1)
		}
		server, err := strconv.Atoi(fields[1])
		if err != nil {
			return "", fmt.Errorf("bad server index %q", fields[1])
		}
		if _, err := s.Drain(server); err != nil {
			return "", err
		}
		return "", nil
	case "REPL":
		// The payload is JSON, not fields: split once on the raw line.
		_, payload, ok := strings.Cut(line, " ")
		if !ok || strings.TrimSpace(payload) == "" {
			return "", errors.New("REPL wants a delta payload")
		}
		return "", s.mergeReplLine(strings.TrimSpace(payload))
	default:
		return "", fmt.Errorf("unknown command %q", cmd)
	}
}
