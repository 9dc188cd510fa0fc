// Self-balancing cluster: the complete feedback loop of the paper,
// fully automatic, on real sockets.
//
// Two capacity-limited HTTP backends (fast and slow) each run a load
// agent that measures busy-time utilization every 250 ms and reports
// ALARM / HITS / ROLL to the authoritative DNS. A client hammers the
// site; when its traffic saturates the slow backend, the backend's own
// agent raises the alarm, the DNS stops handing out that server, and
// the overload drains — no operator in the loop. Clients carry an
// EDNS Client Subnet option so the DNS classifies their origin network
// even though every query arrives from the same resolver socket.
//
// Run with:
//
//	go run ./examples/selfbalancing
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/netip"
	"time"

	"dnslb"
)

const zone = "www.cluster.example"

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Two backends: S1 is 4x faster than S2.
	capacities := []float64{400, 100}
	backends := make([]*dnslb.Backend, len(capacities))

	// DNS scheduler over the same capacities, TTL/K-adaptive.
	cluster, err := dnslb.NewCluster(capacities)
	if err != nil {
		return err
	}
	const domains = 2
	state, err := dnslb.NewState(cluster, domains)
	if err != nil {
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

	// The DNS answers with the backends' loopback addresses; for this
	// demo both backends share 127.0.0.1 and we route by port below, so
	// the A record payloads are placeholders from TEST-NET.
	dns, err := dnslb.NewDNSServer(dnslb.DNSServerConfig{
		Zone: zone,
		ServerAddrs: []netip.Addr{
			netip.MustParseAddr("192.0.2.1"),
			netip.MustParseAddr("192.0.2.2"),
		},
		Policy: policy,
		Mapper: dnslb.PrefixHashMapper(domains),
		Addr:   "127.0.0.1:0",
		// The backends' agents report here.
		ReportAddr: "127.0.0.1:0",
	})
	if err != nil {
		return err
	}
	if err := dns.Start(); err != nil {
		return err
	}
	defer dns.Close()

	// Backends with self-reporting agents (250 ms windows, θ = 0.6).
	byIP := make(map[netip.Addr]*dnslb.Backend, len(capacities))
	answerIPs := []netip.Addr{netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2")}
	for i, c := range capacities {
		b, err := dnslb.NewBackend(dnslb.BackendConfig{
			Capacity:            c,
			Domains:             domains,
			ServerIndex:         i,
			ReportAddr:          dns.ReportAddr().String(),
			UtilizationInterval: 250 * time.Millisecond,
			AlarmThreshold:      0.6,
			Simulate:            true,
		})
		if err != nil {
			return err
		}
		if err := b.Start(); err != nil {
			return err
		}
		defer b.Close()
		backends[i] = b
		byIP[answerIPs[i]] = b
	}
	fmt.Printf("DNS on %s; backends S1 (400 hits/s) on %s, S2 (100 hits/s) on %s\n\n",
		dns.Addr(), backends[0].Addr(), backends[1].Addr())

	// A client population from network 198.51.100.0/24 (domain via ECS).
	resolver := &dnslb.Resolver{
		Server:       dns.Addr().String(),
		Timeout:      2 * time.Second,
		ClientSubnet: netip.MustParsePrefix("198.51.100.0/24"),
	}
	ns := dnslb.NewCachingNS(resolver, 0)
	ctx := context.Background()

	resolveTarget := func() (*dnslb.Backend, netip.Addr, error) {
		answers, _, err := ns.LookupA(ctx, zone)
		if err != nil {
			return nil, netip.Addr{}, err
		}
		b, ok := byIP[answers[0].Addr]
		if !ok {
			return nil, answers[0].Addr, fmt.Errorf("unknown backend %v", answers[0].Addr)
		}
		return b, answers[0].Addr, nil
	}

	// Phase 1: sustained traffic against whatever the DNS mapped us to.
	target, ip, err := resolveTarget()
	if err != nil {
		return err
	}
	fmt.Printf("phase 1: NS cached mapping to %v; sending 3s of traffic...\n", ip)
	hammerFor := func(b *dnslb.Backend, d time.Duration, hitsPerReq int) error {
		end := time.Now().Add(d)
		url := fmt.Sprintf("http://%s/?hits=%d&domain=0", b.Addr(), hitsPerReq)
		for time.Now().Before(end) {
			resp, err := http.Get(url)
			if err != nil {
				return err
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			time.Sleep(10 * time.Millisecond)
		}
		return nil
	}
	// ~100 requests/s × 3 hits: saturates S2 (100 hits/s), not S1.
	if err := hammerFor(target, 3*time.Second, 3); err != nil {
		return err
	}

	sn := state.Snapshot()
	for i, b := range backends {
		fmt.Printf("  S%d utilization %.2f, alarmed=%v (DNS sees %v), hits=%d\n",
			i+1, b.Utilization(), b.Alarmed(), sn.Alarmed(i), b.TotalHits())
	}

	// Phase 2: force a fresh mapping; if the loaded backend alarmed,
	// the DNS must steer us to the other one.
	ns.Flush()
	newTarget, newIP, err := resolveTarget()
	if err != nil {
		return err
	}
	fmt.Printf("\nphase 2: fresh mapping goes to %v\n", newIP)
	switch {
	case target.Alarmed() && newTarget == target:
		return fmt.Errorf("DNS kept handing out an alarmed backend")
	case target.Alarmed():
		fmt.Println("the saturated backend alarmed itself and the DNS routed around it — ")
		fmt.Println("the paper's asynchronous feedback loop, closed end to end.")
	default:
		fmt.Println("the fast backend absorbed the load without alarming (utilization stayed")
		fmt.Println("under θ=0.6); with the slow backend it would have alarmed and been excluded.")
	}
	return nil
}
