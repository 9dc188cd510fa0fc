// Live DNS: the adaptive-TTL load balancer on a real network stack.
//
// This example assembles the paper's whole system from real parts, all
// on the loopback interface:
//
//   - three HTTP "Web servers" with capacities 100/80/50, each bound
//     to its own loopback address (127.1.0.1-3) on a common port;
//   - the authoritative DNS server running DRR2-TTL/S_K, whose A
//     answers carry per-(domain, server) TTLs;
//   - four client "domains", each with its own caching name server
//     whose resolver socket binds a distinct source address
//     (127.0.1.1-4) so the DNS can classify the querying domain;
//   - an alarm raised over the plain-text load-report socket, showing
//     the DNS steering new mappings away from an overloaded server.
//
// Run with:
//
//	go run ./examples/livedns
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/netip"
	"strings"
	"sync/atomic"
	"time"

	"dnslb"
)

const zone = "www.site.example"

// webServer is one backend: a real HTTP server counting its requests.
type webServer struct {
	addr     netip.Addr
	port     uint16
	capacity float64
	hits     atomic.Int64
	srv      *http.Server
}

func startWebServers() ([]*webServer, error) {
	caps := []float64{100, 80, 50}
	servers := make([]*webServer, len(caps))
	var port uint16
	for i, c := range caps {
		addr := netip.AddrFrom4([4]byte{127, 1, 0, byte(i + 1)})
		listenOn := fmt.Sprintf("%s:%d", addr, port)
		ln, err := net.Listen("tcp", listenOn)
		if err != nil {
			return nil, fmt.Errorf("web server %d: %w", i, err)
		}
		if port == 0 {
			ap, err := netip.ParseAddrPort(ln.Addr().String())
			if err != nil {
				return nil, err
			}
			port = ap.Port()
		}
		ws := &webServer{addr: addr, port: port, capacity: c}
		mux := http.NewServeMux()
		mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
			ws.hits.Add(1)
			fmt.Fprintf(w, "hello from %s (capacity %.0f hits/s)\n", ws.addr, ws.capacity)
		})
		ws.srv = &http.Server{Handler: mux}
		go func() { _ = ws.srv.Serve(ln) }()
		servers[i] = ws
	}
	return servers, nil
}

// domainNS is one connected domain's local name server: a caching
// resolver whose UDP socket binds the domain's source address, so the
// authoritative DNS can tell the domains apart.
type domainNS struct {
	source netip.Addr
	ns     *dnslb.CachingNS
}

func newDomainNS(upstream string, source netip.Addr) *domainNS {
	r := &dnslb.Resolver{
		Server:  upstream,
		Timeout: 2 * time.Second,
		Dialer: net.Dialer{
			LocalAddr: &net.UDPAddr{IP: source.AsSlice()},
		},
	}
	return &domainNS{source: source, ns: dnslb.NewCachingNS(r, 0)}
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	webs, err := startWebServers()
	if err != nil {
		return err
	}
	defer func() {
		for _, w := range webs {
			_ = w.srv.Close()
		}
	}()

	// The DNS side: cluster, Zipf-weighted domains, adaptive policy.
	caps := make([]float64, len(webs))
	addrs := make([]netip.Addr, len(webs))
	for i, w := range webs {
		caps[i] = w.capacity
		addrs[i] = w.addr
	}
	cluster, err := dnslb.NewCluster(caps)
	if err != nil {
		return err
	}
	const domains = 4
	state, err := dnslb.NewState(cluster, domains)
	if err != nil {
		return err
	}
	// Zipf-ish weights: domain 0 sends about half the traffic.
	if err := state.SetWeights([]float64{12, 6, 4, 2}); err != nil {
		return err
	}
	start := time.Now()
	policy, err := dnslb.NewPolicy(dnslb.PolicyConfig{
		Name:  "DRR2-TTL/S_K",
		State: state,
		Now:   func() float64 { return time.Since(start).Seconds() },
	})
	if err != nil {
		return err
	}

	// Source addresses 127.0.1.<domain+1> identify the domains.
	sources := make([]netip.Addr, domains)
	table := make(map[netip.Addr]int, domains)
	for j := range sources {
		sources[j] = netip.AddrFrom4([4]byte{127, 0, 1, byte(j + 1)})
		table[sources[j]] = j
	}
	dns, err := dnslb.NewDNSServer(dnslb.DNSServerConfig{
		Zone:        zone,
		ServerAddrs: addrs,
		Policy:      policy,
		Mapper:      dnslb.StaticMapper(table, 0),
		Addr:        "127.0.0.1:0",
		ReportAddr:  "127.0.0.1:0",
	})
	if err != nil {
		return err
	}
	if err := dns.Start(); err != nil {
		return err
	}
	defer dns.Close()
	fmt.Printf("authoritative DNS for %s on %s, load reports on %s\n\n",
		zone, dns.Addr(), dns.ReportAddr())

	// Each domain's clients resolve through their local NS and fetch.
	nses := make([]*domainNS, domains)
	for j := range nses {
		nses[j] = newDomainNS(dns.Addr().String(), sources[j])
	}
	ctx := context.Background()
	requestsPerDomain := []int{240, 120, 80, 40} // ∝ the hidden load weights
	fmt.Println("domain  requests  TTL(s)  resolved-to")
	for j, n := range requestsPerDomain {
		answers, _, err := nses[j].ns.LookupA(ctx, zone)
		if err != nil {
			return fmt.Errorf("domain %d resolve: %w", j, err)
		}
		fmt.Printf("%6d  %8d  %6.0f  %v\n", j, n, answers[0].TTL.Seconds(), answers[0].Addr)
		for i := 0; i < n; i++ {
			// Within the TTL every fetch reuses the cached mapping —
			// the "hidden load" the DNS never sees.
			answers, _, err := nses[j].ns.LookupA(ctx, zone)
			if err != nil {
				return err
			}
			if err := fetch(answers[0].Addr, webs[0].port); err != nil {
				return err
			}
		}
	}

	fmt.Println("\nper-server HTTP requests (capacity):")
	for i, w := range webs {
		fmt.Printf("  S%d %v: %4d requests (capacity %.0f hits/s)\n",
			i+1, w.addr, w.hits.Load(), w.capacity)
	}
	st := dns.Stats()
	fmt.Printf("\nDNS queries answered: %d — the other %d requests were routed by NS caches\n",
		st.Answered, totalRequests(requestsPerDomain)-int(st.Answered))

	// Overload feedback: server 1 raises an alarm; once the NS caches
	// are refreshed, no new mapping points at it.
	fmt.Println("\nraising ALARM for S1 over the report socket...")
	if err := report(dns.ReportAddr().String(), "ALARM 0 1"); err != nil {
		return err
	}
	for j := range nses {
		nses[j].ns.Flush() // simulate TTL expiry
		answers, _, err := nses[j].ns.LookupA(ctx, zone)
		if err != nil {
			return err
		}
		fmt.Printf("  domain %d now maps to %v\n", j, answers[0].Addr)
		if answers[0].Addr == webs[0].addr {
			return fmt.Errorf("alarmed server still handed out")
		}
	}
	fmt.Println("no new mapping points at the alarmed server — feedback works")
	return nil
}

func fetch(addr netip.Addr, port uint16) error {
	url := fmt.Sprintf("http://%s/", netip.AddrPortFrom(addr, port))
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.Body.Close()
}

func report(addr, line string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := fmt.Fprintln(conn, line); err != nil {
		return err
	}
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err == nil && !strings.HasPrefix(reply, "OK") {
		err = fmt.Errorf("report %q: %s", line, strings.TrimSpace(reply))
	}
	return err
}

func totalRequests(per []int) int {
	total := len(per) // one initial resolve per domain
	for _, n := range per {
		total += n
	}
	return total
}
