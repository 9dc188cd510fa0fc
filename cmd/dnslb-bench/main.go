// Command dnslb-bench regenerates the paper's evaluation: every figure
// (1–7) and both parameter tables, printed as aligned text tables or
// CSV. This is the harness behind EXPERIMENTS.md.
//
// Examples:
//
//	dnslb-bench -exp all -out results/
//	dnslb-bench -exp fig3 -duration 3600 -reps 1
//	dnslb-bench -exp fig1 -csv -out results/
package main

import (
	"bytes"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dnslb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dnslb-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dnslb-bench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment id: table1, table2, fig1..fig7, ext-*, verify, or all")
		reps     = fs.Int("reps", 0, "override replications")
		duration = fs.Float64("duration", 0, "override measured virtual seconds")
		seed     = fs.Uint64("seed", 1, "base random seed")
		workers  = fs.Int("workers", runtime.NumCPU(), "parallel simulation runs per figure (0 or 1 = sequential; results are identical)")
		csv      = fs.Bool("csv", false, "emit CSV instead of text tables")
		plot     = fs.Bool("plot", false, "also draw each figure as an ASCII chart")
		outDir   = fs.String("out", "", "also write each experiment to <out>/<id>.{txt,csv}")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := dnslb.DefaultExperimentOptions()
	if *reps > 0 {
		opts.Reps = *reps
	}
	if *duration > 0 {
		opts.Duration = *duration
	}
	opts.Seed = *seed
	opts.Workers = *workers

	if *exp == "verify" {
		return runVerify(opts, *outDir, out)
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = append([]string{"table1"}, dnslb.ExperimentIDs()...)
	}
	for _, id := range ids {
		if err := runOne(id, opts, *csv, *plot, *outDir, out); err != nil {
			return err
		}
	}
	if *exp == "all" {
		return runVerify(opts, *outDir, out)
	}
	return nil
}

// runVerify checks every claim of the paper, writing the report to out
// and, when outDir is set, to <outDir>/verify.txt (text only).
func runVerify(opts dnslb.ExperimentOptions, outDir string, out io.Writer) error {
	var report bytes.Buffer
	failed, err := dnslb.VerifyReproduction(opts, &report)
	if err != nil {
		return err
	}
	if _, err := out.Write(report.Bytes()); err != nil {
		return err
	}
	if outDir != "" {
		if err := save(outDir, "verify.txt", report.Bytes()); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d claim(s) failed", failed)
	}
	return nil
}

func runOne(id string, opts dnslb.ExperimentOptions, csv, plot bool, outDir string, out io.Writer) error {
	if id == "table1" {
		return writeBoth(id, outDir, out, csv, func(w io.Writer, asCSV bool) error {
			return printTable1(w, opts, asCSV)
		})
	}
	runner, ok := dnslb.Experiments[id]
	if !ok {
		return fmt.Errorf("unknown experiment %q (known: table1, %v)", id, dnslb.ExperimentIDs())
	}
	start := time.Now()
	fig, err := runner(opts)
	if err != nil {
		return err
	}
	err = writeBoth(id, outDir, out, csv, func(w io.Writer, asCSV bool) error {
		if asCSV {
			return fig.RenderCSV(w)
		}
		return fig.Render(w)
	})
	if err != nil {
		return err
	}
	if plot {
		if err := fig.RenderPlot(out, 64, 16); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "# %s completed in %v\n\n", id, time.Since(start).Round(time.Millisecond))
	return nil
}

// writeBoth renders to the main stream and, when outDir is set, to
// <outDir>/<id>.txt and <outDir>/<id>.csv.
func writeBoth(id, outDir string, out io.Writer, csv bool, render func(io.Writer, bool) error) error {
	if err := render(out, csv); err != nil {
		return err
	}
	if outDir == "" {
		return nil
	}
	for _, form := range []struct {
		ext   string
		asCSV bool
	}{{"txt", false}, {"csv", true}} {
		var buf bytes.Buffer
		if err := render(&buf, form.asCSV); err != nil {
			return err
		}
		if err := save(outDir, id+"."+form.ext, buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// save writes data to <outDir>/<name>, creating outDir if needed.
func save(outDir, name string, data []byte) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), data, 0o644)
}

// printTable1 echoes the model parameters (paper Table 1) alongside
// this reproduction's effective settings, as an aligned text table or
// as CSV with a Parameter,Value header.
func printTable1(w io.Writer, opts dnslb.ExperimentOptions, asCSV bool) error {
	cfg := dnslb.DefaultSimConfig("DRR2-TTL/S_K")
	rows := [][]string{
		{"Connected domains K", fmt.Sprintf("%d (sweep 10-100)", cfg.Workload.Domains)},
		{"Clients per domain", "pure Zipf"},
		{"Total clients", fmt.Sprintf("%d", cfg.Workload.Clients)},
		{"Mean think time", fmt.Sprintf("%.0f s (exponential)", cfg.Workload.MeanThinkTime)},
		{"Page requests per session", fmt.Sprintf("%.0f (geometric)", cfg.Workload.PagesPerSession)},
		{"Hits per page request", fmt.Sprintf("uniform %d-%d", cfg.Workload.HitsMin, cfg.Workload.HitsMax)},
		{"Web servers N", fmt.Sprintf("%d (sweep 5-17)", cfg.Servers)},
		{"Total capacity", fmt.Sprintf("%.0f hits/s (constant)", cfg.TotalCapacity)},
		{"Heterogeneity", "20-65% (Table 2)"},
		{"Average utilization", "~0.667 (derived: 500 clients x 10 hits / 15 s)"},
		{"Utilization/alarm interval", fmt.Sprintf("%.0f s", cfg.UtilizationInterval)},
		{"Metric window", fmt.Sprintf("%.0f s (see DESIGN.md)", cfg.MetricWindow)},
		{"Alarm threshold theta", fmt.Sprintf("%.2f", cfg.AlarmThreshold)},
		{"Class threshold beta", "1/K"},
		{"Constant TTL", fmt.Sprintf("%.0f s", cfg.ConstantTTL)},
		// Every experiment keeps the simulator's default warm-up.
		{"Simulation length", fmt.Sprintf("%.0f s measured + %.0f s warm-up, %d rep(s)", opts.Duration, cfg.Warmup, opts.Reps)},
	}
	if asCSV {
		return csv.NewWriter(w).WriteAll(append([][]string{{"Parameter", "Value"}}, rows...))
	}
	fmt.Fprintln(w, "# table1 — Parameters of the system model")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %s\n", r[0], r[1])
	}
	fmt.Fprintln(w)
	return nil
}
