package dnsserver

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"

	"dnslb/internal/metrics"
)

// The admin ports, Config.MetricsAddr and Config.PprofAddr, run on the
// stream loop and HTTP/1.1 framing DoH runs on, each with a framer of its
// own that serves its own paths, GET and HEAD only (HEAD closes the
// connection behind the body, as on DoH): 404 elsewhere, 405 for other
// methods. So both have MaxTCPConns, the timeouts and Shutdown like every
// stream listener, and the server links no net/http.
//
//   - MetricsAddr: /metrics, the registry in the text exposition format.
//   - PprofAddr: /debug/pprof/ (an index), /debug/pprof/<name>[?debug=N]
//     for every runtime/pprof profile, profile?seconds=N (CPU),
//     trace?seconds=N and cmdline. A profile without ?debug is a gzipped
//     protocol buffer carrying its own symbols, so there is no /symbol.
//     A recording ends early when the server shuts down.

var (
	metricsFramer = adminFramer(func(path string) adminHandler {
		if path == "/metrics" {
			return (*Server).serveMetrics
		}
		return nil
	})
	pprofFramer = adminFramer(pprofRoute)
)

// MetricsAddr returns the bound /metrics address, nil when
// Config.MetricsAddr is empty (valid after Start).
func (s *Server) MetricsAddr() net.Addr {
	if s.metricsLn == nil {
		return nil
	}
	return s.metricsLn.Addr()
}

// An adminHandler answers a GET or HEAD request that was framed whole.
type adminHandler func(s *Server, b *streamBufs, r *httpRequest)

// adminFramer returns the framer of an admin port whose paths route maps
// to their handlers (nil for a path the port does not serve). It shares
// DoH's buffers: its requests have the same bounds.
func adminFramer(route func(path string) adminHandler) *framer {
	return &framer{func(s *Server, b *streamBufs, buf []byte) int {
		return s.exchangeAdmin(b, buf, route)
	}, dohRequestTimeout, dohFramer.pool}
}

// exchangeAdmin is an admin port's HTTP/1.1 framer: exchangeDoH's framing
// with route in place of the DNS endpoints.
func (s *Server) exchangeAdmin(b *streamBufs, buf []byte, route func(string) adminHandler) int {
	r, status, msg := parseHTTPHead(buf)
	if status == "" && r.body > maxDoHRequest {
		status, msg = "413 Content Too Large", "request body too large"
	}
	if status != "" {
		b.httpError(status, "", msg, true)
		// Read what the client is still sending before the close, as
		// exchangeDoH does, so the reset does not take the response.
		if b.bw.Flush() == nil && b.conn.SetReadDeadline(time.Now().Add(time.Second/2)) == nil {
			_, _ = io.CopyN(io.Discard, b.br, 1<<16)
		}
		return 0
	}
	n := r.head + r.body
	if r.head == 0 {
		return len(buf) + 1
	} else if len(buf) < n {
		return n
	}
	r.close = r.close || string(r.method) == "HEAD"
	switch h := route(string(r.path)); {
	case h == nil:
		b.httpError("404 Not Found", "", "404 page not found", r.close)
	case string(r.method) != "GET" && string(r.method) != "HEAD":
		b.httpError("405 Method Not Allowed", "Allow: GET, HEAD\r\n", "method not allowed", r.close)
	default:
		h(s, b, &r)
	}
	if r.close {
		return 0
	}
	return n
}

// httpOK appends a 200 response with body.
func (b *streamBufs) httpOK(ctype string, body []byte, closing bool) {
	b.appendHTTPHead("200 OK", ctype, "", len(body), closing)
	_, _ = b.bw.Write(body)
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
func pprofRoute(path string) adminHandler {
	name, ok := strings.CutPrefix(path, "/debug/pprof/")
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
// (defSeconds without one), or until the server shuts down, and answers
// with what it wrote. Only one of each kind runs
// in the process at a time: start refuses the second, answered 500.
func (s *Server) record(b *streamBufs, r *httpRequest, defSeconds int, start func(io.Writer) error, stop func()) {
	var body bytes.Buffer
	if err := start(&body); err != nil {
		b.httpError("500 Internal Server Error", "", "could not start recording: "+err.Error(), r.close)
		return
	}
	s.sleepOrClosed(time.Duration(intParam(r.query, "seconds", defSeconds)) * time.Second)
	stop()
	b.httpOK("application/octet-stream", body.Bytes(), r.close)
}
