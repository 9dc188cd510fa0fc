// Package trace records and replays the client workload as an access
// trace: one line per page request with its virtual time, source
// domain, client, hit count, and whether it opens a new session.
//
// A trace makes the workload a first-class artifact: the same trace
// can drive every scheduling policy (paired comparison with identical
// arrivals), be archived alongside results, or be synthesized from a
// real server log. This package holds the file formats only: the
// plain-text trace (Read, Write), the Common Log Format bridge and
// Summarize. The simulator generates traces from its own client
// population (sim.GenerateTrace), so a generated trace replays exactly
// like a live simulation with the same seed.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Record is one page request of the trace.
type Record struct {
	// Time is the virtual arrival time in seconds.
	Time float64
	// Domain is the source domain index.
	Domain int
	// Client is the client index within the whole population.
	Client int
	// Hits is the page's burst size (HTML page plus objects).
	Hits int
	// NewSession marks the first page of a session: the client
	// (re-)resolves the site name before this request.
	NewSession bool
}

const header = "# dnslb trace v1: time domain client hits newsession"

// Write encodes records as a plain-text trace.
func Write(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, header); err != nil {
		return err
	}
	for _, r := range records {
		ns := 0
		if r.NewSession {
			ns = 1
		}
		if _, err := fmt.Fprintf(bw, "%.6f %d %d %d %d\n", r.Time, r.Domain, r.Client, r.Hits, ns); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read decodes a trace written by Write. Lines starting with '#' are
// comments; records must be in non-decreasing time order.
func Read(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var out []Record
	lastTime := math.Inf(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 5 {
			return nil, fmt.Errorf("trace: line %d: %d fields, want 5", lineNo, len(fields))
		}
		t, err := strconv.ParseFloat(fields[0], 64)
		if err != nil || math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
			return nil, fmt.Errorf("trace: line %d: bad time %q", lineNo, fields[0])
		}
		domain, err := strconv.Atoi(fields[1])
		if err != nil || domain < 0 {
			return nil, fmt.Errorf("trace: line %d: bad domain %q", lineNo, fields[1])
		}
		client, err := strconv.Atoi(fields[2])
		if err != nil || client < 0 {
			return nil, fmt.Errorf("trace: line %d: bad client %q", lineNo, fields[2])
		}
		hits, err := strconv.Atoi(fields[3])
		if err != nil || hits < 1 {
			return nil, fmt.Errorf("trace: line %d: bad hits %q", lineNo, fields[3])
		}
		ns, err := strconv.Atoi(fields[4])
		if err != nil || (ns != 0 && ns != 1) {
			return nil, fmt.Errorf("trace: line %d: bad newsession %q", lineNo, fields[4])
		}
		if t < lastTime {
			return nil, fmt.Errorf("trace: line %d: time goes backwards (%v after %v)", lineNo, t, lastTime)
		}
		lastTime = t
		out = append(out, Record{Time: t, Domain: domain, Client: client, Hits: hits, NewSession: ns == 1})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, errors.New("trace: no records")
	}
	return out, nil
}

// Summary aggregates a trace for quick inspection.
type Summary struct {
	Records   int
	Sessions  int
	Clients   int
	Domains   int
	TotalHits int
	Duration  float64
	// HitRate is total hits divided by the trace duration.
	HitRate float64
	// DomainShare is each domain's fraction of the hits.
	DomainShare []float64
}

// Summarize computes a Summary.
func Summarize(records []Record) Summary {
	var s Summary
	if len(records) == 0 {
		return s
	}
	s.Records = len(records)
	clients := make(map[int]bool)
	maxDomain := 0
	for _, r := range records {
		if r.NewSession {
			s.Sessions++
		}
		clients[r.Client] = true
		if r.Domain > maxDomain {
			maxDomain = r.Domain
		}
		s.TotalHits += r.Hits
	}
	s.Clients = len(clients)
	s.Domains = maxDomain + 1
	s.Duration = records[len(records)-1].Time - records[0].Time
	if s.Duration > 0 {
		s.HitRate = float64(s.TotalHits) / s.Duration
	}
	s.DomainShare = make([]float64, s.Domains)
	for _, r := range records {
		s.DomainShare[r.Domain] += float64(r.Hits)
	}
	for i := range s.DomainShare {
		s.DomainShare[i] /= float64(s.TotalHits)
	}
	return s
}
