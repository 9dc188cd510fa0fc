package dnsserver

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"dnslb/internal/metrics"
)

// adminServer starts a server with both admin ports, a registry attached
// and every stream listener capped at maxConns connections.
func adminServer(t *testing.T, maxConns int) (*Server, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	srv, _ := testServerCfg(t, "RR", func(cfg *Config) {
		cfg.Metrics, cfg.MaxTCPConns = reg, maxConns
		cfg.MetricsAddr, cfg.PprofAddr = "127.0.0.1:0", "127.0.0.1:0"
	})
	return srv, reg
}

// adminGet fetches path from an admin port through net/http's client.
func adminGet(t *testing.T, ln net.Listener, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + ln.Addr().String() + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestMetricsPortServesRegistry: /metrics is WritePrometheus byte for
// byte, under the exposition format's content type, and valid text.
func TestMetricsPortServesRegistry(t *testing.T) {
	srv, reg := adminServer(t, 0)
	if _, err := resolverFor(t, srv).LookupA(context.Background(), "www.site.example"); err != nil {
		t.Fatal(err)
	}
	resp, body := adminGet(t, srv.metricsLn, "/metrics")
	var want bytes.Buffer
	if err := reg.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != metrics.TextContentType {
		t.Fatalf("status %d, Content-Type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("body differs from WritePrometheus:\n%s\nwant\n%s", body, want.Bytes())
	}
	if n, err := metrics.CheckText(bytes.NewReader(body)); err != nil || n == 0 {
		t.Errorf("CheckText = %d samples, %v", n, err)
	}
	if got := srv.MetricsAddr().String(); got != srv.metricsLn.Addr().String() {
		t.Errorf("MetricsAddr = %s", got)
	}
}

// TestAdminPortsRefuse: each port serves its own paths only, and GET and
// HEAD only.
func TestAdminPortsRefuse(t *testing.T) {
	srv, _ := adminServer(t, 0)
	for _, c := range []struct {
		ln   net.Listener
		path string
	}{
		{srv.metricsLn, "/"},
		{srv.metricsLn, "/metrics/"},
		{srv.metricsLn, "/debug/pprof/heap"},
		{srv.pprofLn, "/metrics"},
		{srv.pprofLn, "/debug/pprof/nosuchprofile"},
		{srv.pprofLn, "/debug/pprof/symbol"},
	} {
		if resp, _ := adminGet(t, c.ln, c.path); resp.StatusCode != 404 {
			t.Errorf("GET %s = %d, want 404", c.path, resp.StatusCode)
		}
	}
	resp, err := http.Post("http://"+srv.metricsLn.Addr().String()+"/metrics", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != 405 || resp.Header.Get("Allow") != "GET, HEAD" {
		t.Errorf("POST /metrics = %d, Allow %q; want 405, GET, HEAD", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

// TestAdminHeadCloses: a HEAD is answered and the connection closed
// behind it, as on DoH.
func TestAdminHeadCloses(t *testing.T) {
	srv, _ := adminServer(t, 0)
	conn, err := net.Dial("tcp", srv.metricsLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(conn, "HEAD /metrics HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	all, err := io.ReadAll(conn) // returns at EOF: the server closed
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(all, []byte("HTTP/1.1 200 OK\r\n")) || !bytes.Contains(all, []byte("\r\nConnection: close\r\n")) {
		t.Errorf("HEAD response:\n%s", all)
	}
}

// TestPprofPortProfiles: named profiles come gzipped, or as text under
// ?debug=1; the CPU profile and the trace run for their ?seconds.
func TestPprofPortProfiles(t *testing.T) {
	srv, _ := adminServer(t, 0)
	for _, path := range []string{"/debug/pprof/heap", "/debug/pprof/allocs", "/debug/pprof/profile?seconds=1"} {
		resp, body := adminGet(t, srv.pprofLn, path)
		if resp.StatusCode != 200 || len(body) < 2 || body[0] != 0x1f || body[1] != 0x8b {
			t.Errorf("GET %s = %d, %d bytes beginning % x; want gzip", path, resp.StatusCode, len(body), body[:min(2, len(body))])
		}
	}
	if resp, body := adminGet(t, srv.pprofLn, "/debug/pprof/goroutine?debug=1"); resp.StatusCode != 200 || !bytes.HasPrefix(body, []byte("goroutine profile: total ")) {
		t.Errorf("goroutine?debug=1 = %d:\n%.200s", resp.StatusCode, body)
	}
	if resp, body := adminGet(t, srv.pprofLn, "/debug/pprof/"); resp.StatusCode != 200 || !bytes.Contains(body, []byte("/debug/pprof/heap\n")) {
		t.Errorf("index = %d:\n%s", resp.StatusCode, body)
	}
	if resp, body := adminGet(t, srv.pprofLn, "/debug/pprof/cmdline"); resp.StatusCode != 200 || len(body) == 0 {
		t.Errorf("cmdline = %d, %q", resp.StatusCode, body)
	}
	if resp, body := adminGet(t, srv.pprofLn, "/debug/pprof/trace?seconds=1"); resp.StatusCode != 200 || !bytes.HasPrefix(body, []byte("go 1.")) {
		t.Errorf("trace = %d, %d bytes beginning %.8q", resp.StatusCode, len(body), body)
	}
}

// TestShutdownEndsCPUProfile: a shutdown does not wait out a profile's
// seconds; the profile recorded so far is still answered.
func TestShutdownEndsCPUProfile(t *testing.T) {
	srv, _ := adminServer(t, 0)
	type result struct {
		status int
		body   []byte
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + srv.pprofLn.Addr().String() + "/debug/pprof/profile?seconds=30")
		if err != nil {
			done <- result{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		done <- result{resp.StatusCode, body, err}
	}()
	// Wait for the request to be recording: its goroutine sits in record.
	for deadline := time.Now().Add(5 * time.Second); ; {
		var stacks bytes.Buffer
		_ = pprof.Lookup("goroutine").WriteTo(&stacks, 2)
		if bytes.Contains(stacks.Bytes(), []byte("dnsserver.(*Server).record(")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the CPU profile never started")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v after %v", err, time.Since(start))
	}
	select {
	case r := <-done:
		if r.err != nil || r.status != 200 || len(r.body) < 2 || r.body[0] != 0x1f {
			t.Errorf("profile cut by shutdown: status %d, %d bytes, %v", r.status, len(r.body), r.err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("profile request still open after Shutdown")
	}
}

// TestMetricsPortConnCap: a client trickling a request holds one of the
// metrics port's connection slots, like a connection on any stream
// listener; a scrape waits for the slot and is served when it frees.
func TestMetricsPortConnCap(t *testing.T) {
	srv, _ := adminServer(t, 1)
	addr := srv.metricsLn.Addr().String()
	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := io.WriteString(slow, "GET /metr"); err != nil {
		t.Fatal(err)
	}
	scrape, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer scrape.Close()
	if _, err := io.WriteString(scrape, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(scrape)
	_ = scrape.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("scrape served while the slow client held the only slot")
	}
	_ = slow.Close()
	_ = scrape.SetReadDeadline(time.Now().Add(3 * time.Second))
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("queued scrape never served after the slot freed: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("queued scrape = %d", resp.StatusCode)
	}
}
