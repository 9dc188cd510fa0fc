package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dnslb"
	"dnslb/internal/trace"
)

func TestRunList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"RR", "DRR2-TTL/S_K", "PRR2-TTL/K", "DAL", "MRL"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

func TestRunShortSimulation(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-policy", "DRR2-TTL/S_K",
		"-duration", "900", "-warmup", "300",
		"-het", "35",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"policy", "DRR2-TTL/S_K",
		"P(MaxUtil < 0.90)",
		"address requests",
		"mean server util",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunWithCurve(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-policy", "RR", "-duration", "600", "-curve"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CumulativeFrequency") {
		t.Error("curve output missing")
	}
}

func TestRunReplicationsFlag(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-policy", "RR", "-duration", "600", "-reps", "2"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "±") {
		t.Error("replicated run should print confidence half-widths")
	}
}

func TestRunUniformIdeal(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-policy", "Ideal", "-uniform", "-duration", "600"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunEstimatorAndPerturbation(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-policy", "PRR2-TTL/K", "-duration", "600",
		"-estimator", "reactive", "-error", "20", "-minttl", "60",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "clamped TTLs") {
		t.Error("min TTL run should report clamped TTLs")
	}
}

func TestRunPredictiveWithFlash(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-policy", "DRR2-TTL/S_K", "-duration", "1200", "-warmup", "100",
		"-estimator", "predictive", "-flash", "0@600+300:100x20",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "estimator           predictive") {
		t.Errorf("predictive run should report its estimator kind:\n%s", buf.String())
	}
}

func TestEstimatorFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-estimator", "bogus", "-duration", "600"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "-estimator") {
		t.Errorf("unknown estimator kind should fail at flag validation, got %v", err)
	}
}

func TestParseFlashCrowds(t *testing.T) {
	events, err := parseFlashCrowds("0@1800+600:300x40, 3@900+120:50x5")
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events", len(events))
	}
	if e := events[0]; e.Domain != 0 || e.Time != 1800 || e.Duration != 600 || e.Clients != 300 || e.Resolvers != 40 {
		t.Errorf("first event = %+v", e)
	}
	if e := events[1]; e.Domain != 3 || e.Time != 900 || e.Clients != 50 || e.Resolvers != 5 {
		t.Errorf("second event = %+v", e)
	}
	for _, bad := range []string{"x", "0@900", "0@900+60", "0@900+60:10"} {
		if _, err := parseFlashCrowds(bad); err == nil {
			t.Errorf("parseFlashCrowds(%q) should error", bad)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-policy", "bogus", "-duration", "600"}, &buf); err == nil {
		t.Error("unknown policy should error")
	}
	if err := run([]string{"-duration", "-5"}, &buf); err == nil {
		t.Error("negative duration should error")
	}
	if err := run([]string{"-duration", "NaN"}, &buf); err == nil {
		t.Error("NaN duration should error")
	}
	if err := run([]string{"-badflag"}, &buf); err == nil {
		t.Error("unknown flag should error")
	}
}

func TestRunCompareMode(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-policies", "RR,DRR2-TTL/S_K,Ideal",
		"-duration", "900", "-warmup", "300",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"policy", "RR", "DRR2-TTL/S_K", "Ideal", "identical arrivals (same seed)"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}
	// Pairing is by seed: each row is what a plain -policy run at the
	// same seed measures.
	for _, row := range strings.Split(out, "\n")[1:4] {
		f := strings.Fields(row)
		args := []string{"-policy", f[0], "-duration", "900", "-warmup", "300", "-json"}
		if f[0] == "Ideal" {
			args = append(args, "-uniform")
		}
		var single bytes.Buffer
		if err := run(args, &single); err != nil {
			t.Fatal(err)
		}
		var s jsonSummary
		if err := json.Unmarshal(single.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%.4f %.4f %.4f %.3f", s.ProbMaxUnder80, s.ProbMaxUnder90, s.ProbMaxUnder98, s.MeanResponseSec)
		if got := strings.Join(f[1:5], " "); got != want {
			t.Errorf("%s: compare row %q, plain run %q", f[0], got, want)
		}
	}
}

func TestRunCompareModeBadPolicy(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-policies", "RR,bogus", "-duration", "600"}, &buf); err == nil {
		t.Error("bad policy in comparison should error")
	}
}

func TestRunJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-policy", "RR", "-duration", "600", "-json"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if got["policy"] != "RR" {
		t.Errorf("policy = %v", got["policy"])
	}
	for _, key := range []string{"probMaxUnder98", "addressRequests", "meanServerUtil", "meanResponseSeconds"} {
		if _, ok := got[key]; !ok {
			t.Errorf("JSON missing %q", key)
		}
	}
	if _, ok := got["replicaDecisions"]; ok {
		t.Error("single-DNS JSON carries replica fields")
	}

	// Everything the text mode prints per extension must also reach
	// the JSON summary.
	for _, tc := range []struct {
		args []string
		keys []string
	}{
		{[]string{"-replicas", "2"}, []string{"replicaDecisions", "replicaDeltasApplied", "replicaFullSyncs"}},
		{[]string{"-estimator", "predictive"}, []string{"forecastAbsError"}},
	} {
		buf.Reset()
		args := append([]string{"-policy", "DRR2-TTL/S_K", "-duration", "900", "-warmup", "100", "-json"}, tc.args...)
		if err := run(args, &buf); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		got = nil
		if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
			t.Fatalf("%v: invalid JSON: %v\n%s", tc.args, err, buf.String())
		}
		for _, key := range tc.keys {
			if _, ok := got[key]; !ok {
				t.Errorf("%v: JSON missing %q:\n%s", tc.args, key, buf.String())
			}
		}
	}
}

func TestParseFaults(t *testing.T) {
	faults, err := parseFaults("0@900+600, 2@100+50")
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 4 {
		t.Fatalf("got %d events, want 4 (crash+recover per outage)", len(faults))
	}
	if faults[0].Server != 0 || faults[0].Time != 900 || !faults[0].Down {
		t.Errorf("first event = %+v", faults[0])
	}
	if faults[1].Time != 1500 || faults[1].Down {
		t.Errorf("second event = %+v", faults[1])
	}
	if faults[2].Server != 2 || faults[3].Time != 150 {
		t.Errorf("second outage = %+v %+v", faults[2], faults[3])
	}
	for _, bad := range []string{"x", "0@900", "0@900+0", "0@900-600"} {
		if _, err := parseFaults(bad); err == nil {
			t.Errorf("parseFaults(%q) should error", bad)
		}
	}
}

func TestRunWithFaults(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-policy", "RR2",
		"-duration", "1500", "-warmup", "100",
		"-fail", "0@600+400",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"dead-server hits", "failed resolves", "time to drain"} {
		if !strings.Contains(out, want) {
			t.Errorf("fault output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := run([]string{
		"-policy", "RR2", "-duration", "600", "-warmup", "100",
		"-fail", "0@200+100", "-json",
	}, &buf); err != nil {
		t.Fatal(err)
	}
	var summary jsonSummary
	if err := json.Unmarshal(buf.Bytes(), &summary); err != nil {
		t.Fatal(err)
	}
	if summary.DeadServerHits == 0 {
		t.Error("JSON summary missing dead-server hits")
	}
}

func TestRunBadFailFlag(t *testing.T) {
	if err := run([]string{"-fail", "bogus"}, &bytes.Buffer{}); err == nil {
		t.Error("bad -fail should error")
	}
}

func TestParsePartitions(t *testing.T) {
	parts, err := parsePartitions("900+30, 2000+60")
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Fatalf("got %d partitions, want 2", len(parts))
	}
	if parts[0].Start != 900 || parts[0].End != 930 {
		t.Errorf("first partition = %+v", parts[0])
	}
	if parts[1].Start != 2000 || parts[1].End != 2060 {
		t.Errorf("second partition = %+v", parts[1])
	}
	for _, bad := range []string{"x", "900", "900+0", "900-30"} {
		if _, err := parsePartitions(bad); err == nil {
			t.Errorf("parsePartitions(%q) should error", bad)
		}
	}
}

func TestRunReplicated(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-policy", "DRR2-TTL/S_K", "-estimator", "reactive",
		"-duration", "1500", "-warmup", "100",
		"-replicas", "2", "-repl-lag", "1", "-partition", "600+30",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"replica decisions", "replica gossip", "replica divergence"} {
		if !strings.Contains(out, want) {
			t.Errorf("replicated output missing %q:\n%s", want, out)
		}
	}

	// Partitions without replicas must be rejected by validation.
	if err := run([]string{"-partition", "600+30"}, &bytes.Buffer{}); err == nil {
		t.Error("-partition without -replicas should error")
	}
	if err := run([]string{"-partition", "junk"}, &bytes.Buffer{}); err == nil {
		t.Error("bad -partition should error")
	}
}

func TestParseDetection(t *testing.T) {
	if d, err := parseDetection(""); err != nil || d != nil {
		t.Errorf("empty spec: %v, %v", d, err)
	}
	d, err := parseDetection("probe:2,3,2")
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != "probe" || d.Interval != 2 || d.FailN != 3 || d.RiseM != 2 {
		t.Errorf("probe spec parsed as %+v", d)
	}
	d, err = parseDetection("report:60,3")
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != "report" || d.Interval != 60 || d.K != 3 {
		t.Errorf("report spec parsed as %+v", d)
	}
	for _, bad := range []string{"probe", "sonar:1,2,3", "probe:x,y,z", "report:60"} {
		if _, err := parseDetection(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestRunWithDetection(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-policy", "RR", "-duration", "900", "-warmup", "100",
		"-fail", "0@300+400", "-detect", "report:60,3",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "detection           report") {
		t.Errorf("output missing detection line:\n%s", buf.String())
	}
}

// writeTrace generates a trace of the paper's workload over the given
// horizon into a temporary file and returns its path.
func writeTrace(t *testing.T, horizon float64) string {
	t.Helper()
	records, err := dnslb.GenerateTrace(dnslb.DefaultWorkload(), horizon, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.Write(f, records); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunTrace(t *testing.T) {
	path := writeTrace(t, 1200)
	var buf bytes.Buffer
	if err := run([]string{"-trace", path, "-policy", "DRR2-TTL/S_K", "-warmup", "300"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"trace ", "P(MaxUtil < 0.98)", "address requests", "hits served", "300s warm-up + 9"} {
		if !strings.Contains(out, want) {
			t.Errorf("replay output missing %q:\n%s", want, out)
		}
	}

	// Every other flag applies to the replay: replicas, faults, JSON.
	buf.Reset()
	err := run([]string{"-trace", path, "-warmup", "300", "-replicas", "2",
		"-estimator", "reactive", "-fail", "1@600+200", "-json"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var summary struct {
		Domains         int      `json:"domains"`
		ReplDecisions   []uint64 `json:"replicaDecisions"`
		DeadServerHits  uint64   `json:"deadServerHits"`
		DurationSeconds float64  `json:"durationSeconds"`
	}
	if err := json.Unmarshal(buf.Bytes(), &summary); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, buf.String())
	}
	if summary.Domains != 20 || len(summary.ReplDecisions) != 2 || summary.DeadServerHits == 0 ||
		summary.DurationSeconds <= 0 || summary.DurationSeconds > 900 {
		t.Errorf("replicated faulted replay summary = %+v", summary)
	}
}

func TestTraceWarmupLongerThanTrace(t *testing.T) {
	path := writeTrace(t, 120)
	if err := run([]string{"-trace", path, "-warmup", "600"}, io.Discard); err == nil {
		t.Error("warm-up beyond the trace horizon should error")
	}
}

func TestTraceRefusesWorkloadFlags(t *testing.T) {
	path := writeTrace(t, 120)
	for _, flag := range [][]string{
		{"-domains", "5"}, {"-clients", "10"}, {"-uniform"}, {"-error", "10"}, {"-duration", "60"},
	} {
		args := append([]string{"-trace", path, "-warmup", "10"}, flag...)
		err := run(args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), flag[0]) {
			t.Errorf("%v with -trace: err = %v, want a refusal naming %s", flag, err, flag[0])
		}
	}
	for _, args := range [][]string{
		{"-trace", path, "-warmup", "10", "-flash", "0@20+30:10x2"},
		{"-trace", path, "-policies", "RR,DRR2-TTL/S_K"},
		{"-trace", filepath.Join(t.TempDir(), "missing.trace")},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
	if err := run([]string{"-trace", path, "-warmup", "10", "-replicas", "2"}, io.Discard); err != nil {
		t.Errorf("-trace with -replicas: %v", err)
	}
}
