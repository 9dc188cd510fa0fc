package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "table1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Parameters of the system model",
		"Connected domains K",
		"Constant TTL",
		"240 s",
		"Alarm threshold theta",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
}

func TestRunTable2(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "table2"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"heterogeneity levels", "20%", "65%", "0.3500"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFigureQuick(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-exp", "fig3", "-duration", "600", "-reps", "1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig3", "DRR2-TTL/S_K", "DAL", "RR", "completed in"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig3 output missing %q", want)
		}
	}
}

func TestRunCSVAndOutDir(t *testing.T) {
	for _, tc := range []struct{ id, header, row string }{
		// The simulation-length value carries a comma, so it is quoted.
		{"table1", "Parameter,Value\n", "Simulation length,\"18000 s measured + 600 s warm-up, 3 rep(s)\"\n"},
		{"table2", "Server,20%,35%,50%,65%\n", "1,1.000000,1.000000,1.000000,1.000000\n"},
	} {
		dir := t.TempDir()
		var buf bytes.Buffer
		if err := run([]string{"-exp", tc.id, "-csv", "-out", dir}, &buf); err != nil {
			t.Fatal(err)
		}
		if out := buf.String(); !strings.HasPrefix(out, tc.header) || !strings.Contains(out, tc.row) {
			t.Errorf("%s: csv wants header %q and row %q:\n%s", tc.id, tc.header, tc.row, out)
		}
		for _, ext := range []string{".txt", ".csv"} {
			data, err := os.ReadFile(filepath.Join(dir, tc.id+ext))
			if err != nil {
				t.Fatalf("%s%s: %v", tc.id, ext, err)
			}
			if isCSV := strings.HasPrefix(string(data), tc.header); len(data) == 0 || isCSV != (ext == ".csv") {
				t.Errorf("%s%s starts %q", tc.id, ext, strings.SplitN(string(data), "\n", 2)[0])
			}
		}
	}
}

func TestRunExtensionExperiment(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-exp", "ext-window", "-duration", "600", "-reps", "1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Metric-window ablation") {
		t.Errorf("extension output wrong:\n%s", buf.String())
	}
}

func TestRunPlot(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-exp", "table2", "-plot"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "x: Server") || !strings.Contains(out, "* 20%") {
		t.Errorf("plot output missing chart:\n%s", out)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig99"}, &buf); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestRunBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-nope"}, &buf); err == nil {
		t.Error("unknown flag should error")
	}
}

func TestRunVerify(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run([]string{"-exp", "verify", "-duration", "1800", "-out", dir}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "12/12 claims hold") {
		t.Errorf("verify output:\n%s", out)
	}
	// -out stores the report as it was printed, text only.
	data, err := os.ReadFile(filepath.Join(dir, "verify.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != out {
		t.Errorf("verify.txt:\n%s\nstdout:\n%s", data, out)
	}
	if _, err := os.Stat(filepath.Join(dir, "verify.csv")); !os.IsNotExist(err) {
		t.Errorf("verify.csv: %v, want no CSV form", err)
	}
}
