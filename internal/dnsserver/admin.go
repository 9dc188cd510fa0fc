package dnsserver

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"

	"dnslb/internal/metrics"
)

// The admin ports, Config.MetricsAddr and Config.PprofAddr, run on DoH's
// stream loop and HTTP/1.1 framer (exchangeHTTP) with routes of their own,
// GET and HEAD only (HEAD closes the connection behind the body): 404
// elsewhere, 405 for other methods, 413 for a body over maxDoHRequest. So
// they have the cap, timeouts and Shutdown of every stream listener, and
// the server links no net/http.
//
//   - MetricsAddr: /metrics, the registry in the text exposition format.
//   - PprofAddr: /debug/pprof/ (an index), /debug/pprof/<name>[?debug=N]
//     for every runtime/pprof profile, profile?seconds=N (CPU),
//     trace?seconds=N and cmdline. A profile without ?debug is a gzipped
//     protocol buffer carrying its own symbols, so there is no /symbol.
//     A recording ends early when the server shuts down or the client
//     hangs up.

var (
	metricsFramer = adminFramer(func(path []byte) httpHandler {
		if string(path) == "/metrics" {
			return (*Server).serveMetrics
		}
		return nil
	})
	pprofFramer = adminFramer(pprofRoute)
)

// adminFramer returns the framer of an admin port whose paths route maps
// to their handlers (nil for a path the port does not serve).
func adminFramer(route func(path []byte) httpHandler) *framer {
	return httpFramer(&httpPort{
		route:    func(path []byte) (httpHandler, string) { return route(path), "GET, HEAD" },
		tooLarge: "413 Content Too Large", tooLargeMsg: "request body too large",
		refused: func(*Server) {},
	})
}

// MetricsAddr returns the bound /metrics address, the zero AddrPort
// when Config.MetricsAddr is empty (valid after Start).
func (s *Server) MetricsAddr() netip.AddrPort {
	if s.metricsLn == nil {
		return netip.AddrPort{}
	}
	return s.metricsLn.Addr()
}

// serveMetrics renders the registry into a buffer, so the response
// carries its length.
func (s *Server) serveMetrics(b *streamBufs, r *httpRequest) {
	var body bytes.Buffer
	if s.registry != nil {
		_ = s.registry.WritePrometheus(&body) // a bytes.Buffer write never fails
	}
	b.httpOK(metrics.TextContentType, body.Bytes(), r.close)
}

// pprofRoute maps the paths under /debug/pprof/ to their handlers.
func pprofRoute(path []byte) httpHandler {
	name, ok := strings.CutPrefix(string(path), "/debug/pprof/")
	switch {
	case !ok:
		return nil
	case name == "":
		return (*Server).servePprofIndex
	case name == "profile":
		return func(s *Server, b *streamBufs, r *httpRequest) {
			s.record(b, r, 30, pprof.StartCPUProfile, pprof.StopCPUProfile)
		}
	case name == "trace":
		return func(s *Server, b *streamBufs, r *httpRequest) { s.record(b, r, 1, trace.Start, trace.Stop) }
	case name == "cmdline":
		return func(_ *Server, b *streamBufs, r *httpRequest) {
			b.httpOK("text/plain; charset=utf-8", []byte(strings.Join(os.Args, "\x00")), r.close)
		}
	case pprof.Lookup(name) != nil:
		return (*Server).serveProfile
	}
	return nil
}

// intParam returns the value of key in a query string when it is a
// positive integer, and def otherwise, as net/http/pprof reads its
// parameters.
func intParam(query []byte, key string, def int) int {
	for len(query) > 0 {
		var kv []byte
		kv, query, _ = bytes.Cut(query, []byte{'&'})
		if k, v, _ := bytes.Cut(kv, []byte{'='}); string(k) == key {
			if n, err := strconv.Atoi(string(v)); err == nil && n > 0 && n <= 1<<30 {
				return n
			}
			return def
		}
	}
	return def
}

// servePprofIndex lists what the pprof port serves.
func (s *Server) servePprofIndex(b *streamBufs, r *httpRequest) {
	var body bytes.Buffer
	body.WriteString("count\tprofile (?debug=1 for text)\n")
	for _, p := range pprof.Profiles() {
		fmt.Fprintf(&body, "%d\t/debug/pprof/%s\n", p.Count(), p.Name())
	}
	body.WriteString("\t/debug/pprof/profile?seconds=30\n\t/debug/pprof/trace?seconds=1\n\t/debug/pprof/cmdline\n")
	b.httpOK("text/plain; charset=utf-8", body.Bytes(), r.close)
}

// serveProfile writes one runtime/pprof profile: gzipped protocol buffer,
// or text for ?debug=N.
func (s *Server) serveProfile(b *streamBufs, r *httpRequest) {
	debug := intParam(r.query, "debug", 0)
	var body bytes.Buffer
	if err := pprof.Lookup(string(r.path[len("/debug/pprof/"):])).WriteTo(&body, debug); err != nil {
		b.httpError("500 Internal Server Error", "", "profile: "+err.Error(), r.close)
		return
	}
	ctype := "application/octet-stream"
	if debug > 0 {
		ctype = "text/plain; charset=utf-8"
	}
	b.httpOK(ctype, body.Bytes(), r.close)
}

// record runs a CPU profile or a trace for the request's ?seconds
// (defSeconds without one) and answers with what it wrote. Only one of
// each kind runs in the process at a time: start refuses the second,
// answered 500. The framer's goroutine spends the recording in a read of
// the connection, so what ends the read ends the recording: its deadline,
// Shutdown's deadline of now (the partial recording is answered), or the
// client hanging up (the connection closes). Bytes the client pipelines
// meanwhile wait in the read buffer (one that fills it is cut off); the
// read may move them, so r's slices are not read after it.
func (s *Server) record(b *streamBufs, r *httpRequest, defSeconds int, start func(io.Writer) error, stop func()) {
	var body bytes.Buffer
	if err := start(&body); err != nil {
		b.httpError("500 Internal Server Error", "", "could not start recording: "+err.Error(), r.close)
		return
	}
	d := time.Duration(intParam(r.query, "seconds", defSeconds)) * time.Second
	err := b.conn.SetReadDeadline(time.Now().Add(d))
	// Shutdown closes s.closed before it sets the deadline to now: either
	// this sees the channel closed or that deadline replaces the one above.
	if s.stopping() {
		err = os.ErrDeadlineExceeded
	}
	for err == nil {
		_, err = b.br.Peek(b.br.Buffered() + 1)
	}
	stop()
	r.close = r.close || !errors.Is(err, os.ErrDeadlineExceeded)
	b.httpOK("application/octet-stream", body.Bytes(), r.close)
}
