package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"dnslb/benchmark/loadgen"
)

// BENCHMARK.json is what the driver reads; spec.go is what the
// benchmark prints. They must name the same workloads and metrics with
// the same units, directions and bounds, inside the contract's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	repo, err := findRepo()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, spec says %d", doc.RunSeconds, runSeconds)
	}
	// 4 + 22 × workloads runs, set-up and builds included, inside 3420 s.
	if runs := 4 + 22*len(workloads); float64(runs)*(runSeconds+4.5)+120 > 3420 {
		t.Errorf("%d runs of %d s measuring do not fit the driver's 3420 s", runs, runSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q/%q differs from spec or is over 200 characters", i, w.Name, w.Why)
		}
	}
	compare := func(kind string, got []jsonMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec", len(got), kind, len(want))
		}
		for i, m := range got {
			checkName(m.Name)
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better || !unit.MatchString(m.Unit) ||
				(m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s metric %d: %+v differs from spec %+v", kind, i, m, w)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != w.bound || w.bound <= 0 || w.bound > 0.25):
				t.Errorf("%s metric %s: bound missing, different from spec, or outside (0, 0.25]", kind, m.Name)
			case !bounded && m.Bound != nil:
				t.Errorf("%s metric %s has a bound", kind, m.Name)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	if len(doc.PerLayer) > 128 || len(doc.EndToEnd) > 16 {
		t.Error("too many metrics")
	}
}

func testEnv(t *testing.T) *env {
	t.Helper()
	repo, err := findRepo()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServer(repo)
	if err != nil {
		t.Fatal(err)
	}
	return newEnv(bin)
}

// A whole untraced run, as short as it goes: every end-to-end metric
// comes out non-zero and nothing fails.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the server and runs a simulator round")
	}
	e := testEnv(t)
	r, err := e.measure(findWorkload("tcp-cold"), 3, 1, options{quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Errorf("correct %v, %d of %d failed\n%v", r.Correct, r.Failed, r.Attempted, r.notes)
	}
	for _, m := range endToEnd {
		if v, ok := r.Metrics[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
			t.Errorf("metric %s = %+v (present %v)", m.name, v, ok)
		}
	}
}

// The backend stand-in and its guard: a server in its default
// configuration marks every backend down after 3 × 8 s of silence, and
// from then on answers SERVFAIL. With the ALIVE heartbeat a 40 s run
// sees none; without it the run's correctness check must fail. The two
// runs go side by side, so the test takes 40 s — too long for every
// `go test`, so it runs only when asked: BENCH_GUARD=1 go test -run Guard.
func TestHeartbeatGuard(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("takes 40 s; set BENCH_GUARD=1 to run")
	}
	e := testEnv(t)
	w := findWorkload("udp-zipf")
	ring, err := loadgen.NewRing(w.stream(1))
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		sent, failed, servfail uint64
		err                    error
	}
	run := func(noHeartbeat bool) outcome {
		var o outcome
		l, _, err := e.start(w, ring, options{noHeartbeat: noHeartbeat})
		if err != nil {
			return outcome{err: err}
		}
		defer l.down()
		g, err := loadgen.Dial(ring, w.generator(l.ports, 1))
		if err != nil {
			return outcome{err: err}
		}
		defer g.Close()
		for end := time.Now().Add(40 * time.Second); time.Now().Before(end); time.Sleep(500 * time.Millisecond) {
			res, err := g.Burst(100, time.Second)
			if err != nil {
				return outcome{err: err}
			}
			o.sent += res.Sent
			o.failed += res.Failed()
			o.servfail += res.Fails[loadgen.FailHeader]
		}
		return o
	}
	results := make(chan outcome, 1)
	go func() { results <- run(true) }()
	with, without := run(false), <-results
	if with.err != nil || without.err != nil {
		t.Fatal(with.err, without.err)
	}
	if with.failed != 0 || with.sent == 0 {
		t.Errorf("with the heartbeat: %d of %d queries failed (%d SERVFAIL), want none", with.failed, with.sent, with.servfail)
	}
	if without.servfail == 0 {
		t.Errorf("without the heartbeat: no SERVFAIL among %d queries in 40 s; the guard does not guard", without.sent)
	}
	t.Logf("with heartbeat %d/%d failed; without %d/%d failed, %d SERVFAIL", with.failed, with.sent, without.failed, without.sent, without.servfail)
}
