package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dnslb/internal/sim"
)

// tinyOptions keeps unit-test runtimes low.
func tinyOptions() Options {
	return Options{Duration: 900, Warmup: 300, Reps: 1, Seed: 7, CurvePoints: 6}
}

func TestOptionsValidate(t *testing.T) {
	good := DefaultOptions()
	if err := good.validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
	if err := QuickOptions().validate(); err != nil {
		t.Fatalf("quick options invalid: %v", err)
	}
	bad := []Options{
		{Duration: 0, Reps: 1, CurvePoints: 2},
		{Duration: 1, Warmup: -1, Reps: 1, CurvePoints: 2},
		{Duration: 1, Reps: 0, CurvePoints: 2},
		{Duration: 1, Reps: 1, CurvePoints: 1},
	}
	for i, o := range bad {
		if err := o.validate(); err == nil {
			t.Errorf("bad options %d should error", i)
		}
	}
}

func TestRegistryCoversEveryFigure(t *testing.T) {
	ids := IDs()
	set := make(map[string]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	for _, id := range PaperIDs() {
		if !set[id] {
			t.Errorf("registry missing paper experiment %q", id)
		}
	}
	for _, id := range ExtensionIDs() {
		if !set[id] {
			t.Errorf("registry missing extension experiment %q", id)
		}
	}
	if len(ids) != len(PaperIDs())+len(ExtensionIDs()) {
		t.Errorf("registry has %d entries, want %d: %v",
			len(ids), len(PaperIDs())+len(ExtensionIDs()), ids)
	}
}

func TestExtensionExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long: runs every extension experiment")
	}
	o := tinyOptions()
	for _, id := range ExtensionIDs() {
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
			if len(s.Values) != len(fig.XVals) {
				t.Errorf("%s/%s: %d values for %d x", id, s.Name, len(s.Values), len(fig.XVals))
			}
			for i, v := range s.Values {
				if id == "ext-probes" {
					// Detection latencies in seconds, not probabilities.
					if v < 0 {
						t.Errorf("%s/%s[%d]: negative detection delay %v", id, s.Name, i, v)
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
	for _, id := range []string{"ext-classes", "ext-estimator"} {
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
	v, err := fig.Value("50%", 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0.5 {
		t.Errorf("Table 2, 50%% level, server 5 = %v, want 0.5", v)
	}
	if _, err := fig.Value("nope", 0); err == nil {
		t.Error("unknown series should error")
	}
	if _, err := fig.Value("50%", 99); err == nil {
		t.Error("out-of-range index should error")
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
	if len(fig.XVals) != 6 {
		t.Fatalf("x values = %d, want CurvePoints", len(fig.XVals))
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

func TestSweepFigureStructure(t *testing.T) {
	fig, err := sweepFigure("figY", "test", "x", []float64{20, 50},
		[]string{"RR"}, tinyOptions(),
		func(cfg *sim.Config, x float64) { cfg.HeterogeneityPct = int(x) })
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	if len(s.Values) != 2 || len(s.HalfWidths) != 2 {
		t.Fatalf("series shape wrong: %+v", s)
	}
	for _, v := range s.Values {
		if v < 0 || v > 1 {
			t.Errorf("probability %v out of [0,1]", v)
		}
	}
}

// Options.Workers fans a figure's runs (forEachLimit) and each point's
// replications (sim.RunReplicationsParallel) across goroutines; both
// promise the numbers of the sequential loop, bit for bit.
func TestWorkersDoNotChangeFigures(t *testing.T) {
	o := tinyOptions()
	o.Reps = 2
	for _, run := range []func(Options) (*Figure, error){Figure1, Figure3} {
		o.Workers = 1
		seq, err := run(o)
		if err != nil {
			t.Fatal(err)
		}
		o.Workers = 4
		par, err := run(o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("%s: Workers=4 rows differ from Workers=1\nseq %+v\npar %+v", seq.ID, seq.Series, par.Series)
		}
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	_, err := sweepFigure("figZ", "test", "x", []float64{1}, []string{"bogus"},
		tinyOptions(), func(*sim.Config, float64) {})
	if err == nil {
		t.Error("unknown policy should propagate an error")
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
	o.CurvePoints = 11
	fig, err := cdfFigure("fig1", "t", 20, []string{"Ideal", "DRR2-TTL/S_K", "RR"}, o)
	if err != nil {
		t.Fatal(err)
	}
	// At the 0.9 level (index 8 of 0.5..1.0 step 0.05) the ordering
	// Ideal ≈ DRR2-TTL/S_K >> RR must hold.
	ideal, _ := fig.Value("Ideal", 8)
	best, _ := fig.Value("DRR2-TTL/S_K", 8)
	rr, _ := fig.Value("RR", 8)
	if best <= rr {
		t.Errorf("DRR2-TTL/S_K (%v) must beat RR (%v)", best, rr)
	}
	if ideal < best-0.25 {
		t.Errorf("Ideal (%v) should not be far below DRR2-TTL/S_K (%v)", ideal, best)
	}
}
