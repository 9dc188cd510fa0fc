package metrics

import (
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestCounterConcurrentExact hammers one counter from many goroutines
// and requires the total to be exact —
// the same counter-exactness contract the scheduler's decision counters
// keep.
func TestCounterConcurrentExact(t *testing.T) {
	const (
		goroutines = 16
		perG       = 10000
	)
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
}

// TestHistogramConcurrentExact checks count, sum, and bucket placement
// under concurrent observers.
func TestHistogramConcurrentExact(t *testing.T) {
	const (
		goroutines = 8
		perG       = 5000
	)
	h := newHistogram([]float64{1, 10, 100})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.ObserveHint(uint32(g), float64(i%4)*5) // 0, 5, 10, 15
			}
		}(g)
	}
	wg.Wait()
	bounds, cum := h.Buckets()
	if len(bounds) != 3 || len(cum) != 4 {
		t.Fatalf("buckets = %v %v", bounds, cum)
	}
	if got := cum[3]; got != goroutines*perG {
		t.Errorf("count = %d, want %d", got, goroutines*perG)
	}
	// Per goroutine: 1250 each of 0, 5, 10, 15 → sum 30*1250.
	wantSum := float64(goroutines) * 30 * float64(perG) / 4
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Errorf("sum = %v, want %v", got, wantSum)
	}
	// le=1: the 0 values; le=10: 0,5,10; le=100 and +Inf: everything.
	quarter := uint64(goroutines * perG / 4)
	if cum[0] != quarter {
		t.Errorf("le=1 bucket = %d, want %d", cum[0], quarter)
	}
	if cum[1] != 3*quarter {
		t.Errorf("le=10 bucket = %d, want %d", cum[1], 3*quarter)
	}
	if cum[2] != 4*quarter || cum[3] != 4*quarter {
		t.Errorf("upper buckets = %d,%d, want %d", cum[2], cum[3], 4*quarter)
	}
}

// TestWritePrometheusGolden pins the full exposition output for a
// registry exercising every metric kind, label rendering, histogram
// buckets, and name ordering.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	add := func(c *Counter, n int) {
		for i := 0; i < n; i++ {
			c.Inc()
		}
	}
	add(r.NewCounter("dnslb_test_queries_total", "Queries received.", nil), 42)
	add(r.NewCounter("dnslb_test_decisions_total", "Decisions per server.", Labels{"server", "1"}), 7)
	add(r.NewCounter("dnslb_test_decisions_total", "Decisions per server.", Labels{"server", "0"}), 3)
	r.NewGaugeFunc("dnslb_test_utilization", "Busy fraction.", nil, func() float64 { return 0.625 })
	r.NewGaugeFunc("dnslb_test_live_servers", "Servers not down.", nil, func() float64 { return 6 })
	r.NewCounterFunc("dnslb_test_answered_total", "Answered queries.", nil, func() uint64 { return 41 })
	h := r.NewHistogram("dnslb_test_ttl_seconds", "Returned TTLs.", nil, []float64{30, 240})
	h.ObserveHint(0, 15)
	h.ObserveHint(0, 60)
	h.ObserveHint(0, 500)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP dnslb_test_answered_total Answered queries.
# TYPE dnslb_test_answered_total counter
dnslb_test_answered_total 41
# HELP dnslb_test_decisions_total Decisions per server.
# TYPE dnslb_test_decisions_total counter
dnslb_test_decisions_total{server="0"} 3
dnslb_test_decisions_total{server="1"} 7
# HELP dnslb_test_live_servers Servers not down.
# TYPE dnslb_test_live_servers gauge
dnslb_test_live_servers 6
# HELP dnslb_test_queries_total Queries received.
# TYPE dnslb_test_queries_total counter
dnslb_test_queries_total 42
# HELP dnslb_test_ttl_seconds Returned TTLs.
# TYPE dnslb_test_ttl_seconds histogram
dnslb_test_ttl_seconds_bucket{le="30"} 1
dnslb_test_ttl_seconds_bucket{le="240"} 2
dnslb_test_ttl_seconds_bucket{le="+Inf"} 3
dnslb_test_ttl_seconds_sum 575
dnslb_test_ttl_seconds_count 3
# HELP dnslb_test_utilization Busy fraction.
# TYPE dnslb_test_utilization gauge
dnslb_test_utilization 0.625
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
	if n, err := CheckText(strings.NewReader(b.String())); err != nil || n == 0 {
		t.Errorf("CheckText: samples=%d err=%v", n, err)
	}
}

// TestScrapeWhileRegistering: a series joins a family that a scrape is
// rendering (a backend JOIN under a live /metrics); run under -race.
func TestScrapeWhileRegistering(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			r.NewCounter("joined_total", "Late series.", Labels{"server", strconv.Itoa(i)}).Inc()
		}
	}()
	for {
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x_total", "", Labels{"path", `a"b\c` + "\n"}).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `x_total{path="a\"b\\c\n"} 1` + "\n"
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaped output %q does not contain %q", b.String(), want)
	}
	if _, err := CheckText(strings.NewReader(b.String())); err != nil {
		t.Errorf("CheckText on escaped output: %v", err)
	}
}

func TestRegistrationPanics(t *testing.T) {
	for name, fn := range map[string]func(*Registry){
		"bad metric name": func(r *Registry) { r.NewCounter("9bad", "", nil) },
		"bad label name":  func(r *Registry) { r.NewCounter("ok_total", "", Labels{"9bad", "v"}) },
		"odd labels":      func(r *Registry) { r.NewCounter("ok_total", "", Labels{"just-one"}) },
		"type clash": func(r *Registry) {
			r.NewCounter("clash", "", nil)
			r.NewGaugeFunc("clash", "", nil, func() float64 { return 0 })
		},
		"duplicate series": func(r *Registry) {
			r.NewCounter("dup_total", "", Labels{"a", "1"})
			r.NewCounter("dup_total", "", Labels{"a", "1"})
		},
		"empty histogram bounds": func(r *Registry) { r.NewHistogram("h", "", nil, nil) },
		"unsorted bounds":        func(r *Registry) { r.NewHistogram("h", "", nil, []float64{2, 1}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("registration did not panic")
				}
			}()
			fn(NewRegistry())
		})
	}
}

func TestCheckTextRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"no value\n",
		`metric{unterminated="x" 1` + "\n",
		"metric 1 2 3\n",
		"# BOGUS comment here\n",
		`metric{k=unquoted} 1` + "\n",
		"9leading_digit 1\n",
	} {
		if _, err := CheckText(strings.NewReader(bad)); err == nil {
			t.Errorf("CheckText accepted %q", bad)
		}
	}
	if n, err := CheckText(strings.NewReader("m{a=\"1\",b=\"x,y\"} 5 1700000000\n")); err != nil || n != 1 {
		t.Errorf("valid line rejected: samples=%d err=%v", n, err)
	}
}
