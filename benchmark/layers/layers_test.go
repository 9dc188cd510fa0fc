package layers

import (
	"net/netip"
	"testing"

	"dnslb/benchmark/loadgen"
	"dnslb/internal/dnsserver"
	"dnslb/internal/dnswire"
)

func testRing(t *testing.T) *loadgen.Ring {
	t.Helper()
	var mix loadgen.Mix
	mix[loadgen.KindAECS], mix[loadgen.KindA], mix[loadgen.KindTXT], mix[loadgen.KindNX] = 0.7, 0.1, 0.1, 0.1
	ring, err := loadgen.NewRing(loadgen.StreamConfig{
		Seed: 7, Zone: "www.site.example", Sibling: "ftp.site.example",
		Domains: 20, Subnets: 16, Theta: 1, Mix: mix, RateQPS: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ring
}

// The generator places each /24 in a server domain with its own copy
// of the server's hash; if the server's mapper moves, this fails and
// the Zipf skew the workloads claim is no longer what the server sees.
func TestDomainOfMatchesServerMapper(t *testing.T) {
	ring := testRing(t)
	mapper := dnsserver.PrefixHashMapper(20)
	for d, subnets := range ring.Domain {
		if len(subnets) != 16 {
			t.Fatalf("domain %d has %d subnets, want 16", d, len(subnets))
		}
		for _, si := range subnets {
			s := ring.Subnet[si]
			if got := mapper(netip.AddrFrom4([4]byte{s[0], s[1], s[2], 77})); got != d {
				t.Fatalf("subnet %v: generator says domain %d, server mapper says %d", s, d, got)
			}
		}
	}
}

// The benchmark's own packer and the repository's decoder must agree
// on every generated query: name, type, and the ECS subnet.
func TestGeneratedQueriesDecode(t *testing.T) {
	ring := testRing(t)
	for i := 0; i < loadgen.RingSize; i++ {
		q := dnswire.GetQuery()
		if err := q.UnpackQuery(ring.Query(i)); err != nil {
			t.Fatalf("query %d (kind %d): %v", i, ring.Kind(i), err)
		}
		if q.Header.ID != uint16(i) {
			t.Fatalf("query %d decodes with ID %d", i, q.Header.ID)
		}
		wantECS := ring.Kind(i) == loadgen.KindAECS
		if q.HasECS != wantECS {
			t.Fatalf("query %d (kind %d): HasECS = %v", i, ring.Kind(i), q.HasECS)
		}
		if wantECS {
			s := ring.ECS(i)
			want := netip.PrefixFrom(netip.AddrFrom4([4]byte{s[0], s[1], s[2], 0}), 24)
			if q.ECS.Prefix != want {
				t.Fatalf("query %d: ECS %v, want %v", i, q.ECS.Prefix, want)
			}
		}
		dnswire.PutQuery(q)
	}
}

func TestRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator at paper scale")
	}
	metrics, spans, err := Run(Config{
		Ring: testRing(t), Zone: "www.site.example",
		Capacities: []float64{100, 100, 100, 80, 80, 80, 80}, Domains: 20,
		Policy: "DRR2-TTL/S_K", TempDir: t.TempDir(), SimReps: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range metrics {
		if seen[m.Name] {
			t.Errorf("metric %s reported twice", m.Name)
		}
		seen[m.Name] = true
		if m.Value < 0 {
			t.Errorf("metric %s = %v", m.Name, m.Value)
		}
		t.Logf("%-44s %14.3f %s", m.Name, m.Value, m.Unit)
	}
	if len(spans) < 64 {
		t.Errorf("only %d spans recorded", len(spans))
	}
	for _, s := range spans {
		if s.Parent < 0 || s.Parent > len(spans) || s.End < s.Start {
			t.Fatalf("malformed span %+v", s)
		}
	}
}
