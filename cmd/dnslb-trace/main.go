// Command dnslb-trace records, converts and summarizes client workload
// traces.
//
// Subcommands:
//
//	gen     synthesize a trace from the paper's workload model
//	stats   summarize a trace (rate, sessions, domain skew)
//	import  convert a Common Log Format access log into a trace
//	export  render a trace as a synthetic Common Log Format log
//
// dnslb-sim -trace replays a trace as a simulation's arrivals. A trace
// generated with the same seed and workload replays exactly like a
// live simulation, and every policy replays identical traffic:
//
//	dnslb-trace gen -out day.trace -duration 18000
//	dnslb-trace stats -in day.trace
//	dnslb-sim -trace day.trace -policy RR
//	dnslb-sim -trace day.trace -policy DRR2-TTL/S_K
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dnslb"
	"dnslb/internal/logging"
	"dnslb/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dnslb-trace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: dnslb-trace <gen|stats|import|export> [flags]")
	}
	switch args[0] {
	case "gen":
		return runGen(args[1:], out)
	case "stats":
		return runStats(args[1:], out)
	case "import":
		return runImport(args[1:], out)
	case "export":
		return runExport(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want gen, stats, import, or export)", args[0])
	}
}

func runGen(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dnslb-trace gen", flag.ContinueOnError)
	var (
		outPath  = fs.String("out", "", "output file (default stdout)")
		duration = fs.Float64("duration", 3600, "trace horizon in virtual seconds")
		domains  = fs.Int("domains", 20, "connected domains")
		clients  = fs.Int("clients", 500, "total clients")
		seed     = fs.Uint64("seed", 1, "random seed")
		errPct   = fs.Float64("error", 0, "rate perturbation percent (busiest domain)")
		uniform  = fs.Bool("uniform", false, "uniform client distribution")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl := dnslb.DefaultWorkload()
	wl.Domains = *domains
	wl.Clients = *clients
	wl.PerturbationPct = *errPct
	wl.Uniform = *uniform
	records, err := dnslb.GenerateTrace(wl, *duration, *seed)
	if err != nil {
		return err
	}
	w := out
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := trace.Write(w, records); err != nil {
		return err
	}
	if *outPath != "" {
		fmt.Fprintf(out, "wrote %d records to %s\n", len(records), *outPath)
	}
	return nil
}

func loadTrace(path string) ([]trace.Record, error) {
	if path == "" {
		return nil, fmt.Errorf("-in is required")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f)
}

func runStats(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dnslb-trace stats", flag.ContinueOnError)
	inPath := fs.String("in", "", "trace file")
	top := fs.Int("top", 5, "domains to list by share")
	if err := fs.Parse(args); err != nil {
		return err
	}
	records, err := loadTrace(*inPath)
	if err != nil {
		return err
	}
	s := trace.Summarize(records)
	fmt.Fprintf(out, "records        %d\n", s.Records)
	fmt.Fprintf(out, "sessions       %d\n", s.Sessions)
	fmt.Fprintf(out, "clients        %d\n", s.Clients)
	fmt.Fprintf(out, "domains        %d\n", s.Domains)
	fmt.Fprintf(out, "total hits     %d\n", s.TotalHits)
	fmt.Fprintf(out, "duration       %.1fs\n", s.Duration)
	fmt.Fprintf(out, "hit rate       %.1f hits/s\n", s.HitRate)
	n := *top
	if n > len(s.DomainShare) {
		n = len(s.DomainShare)
	}
	for j := 0; j < n; j++ {
		fmt.Fprintf(out, "domain %-2d      %.1f%% of hits\n", j, 100*s.DomainShare[j])
	}
	return nil
}

func runImport(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dnslb-trace import", flag.ContinueOnError)
	var (
		inPath  = fs.String("in", "", "Common Log Format access log")
		outPath = fs.String("out", "", "trace output file (default stdout)")
		domains = fs.Int("domains", 20, "connected domains for host hashing")
		pageGap = fs.Duration("pagegap", time.Second, "max spacing between hits of one page")
		session = fs.Duration("session", 30*time.Minute, "idle period opening a new session")
		logOpts = logging.AddFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inPath == "" {
		return fmt.Errorf("-in is required")
	}
	logger, err := logOpts.New(os.Stderr)
	if err != nil {
		return err
	}
	f, err := os.Open(*inPath)
	if err != nil {
		return err
	}
	defer f.Close()
	records, err := trace.ParseCommonLog(f, trace.CLFOptions{
		Domains:        *domains,
		PageGap:        *pageGap,
		SessionTimeout: *session,
		Logger:         logger,
	})
	if err != nil {
		return err
	}
	w := out
	if *outPath != "" {
		g, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer g.Close()
		w = g
	}
	if err := trace.Write(w, records); err != nil {
		return err
	}
	if *outPath != "" {
		fmt.Fprintf(out, "imported %d page requests to %s\n", len(records), *outPath)
	}
	return nil
}

func runExport(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dnslb-trace export", flag.ContinueOnError)
	var (
		inPath  = fs.String("in", "", "trace file")
		outPath = fs.String("out", "", "access log output (default stdout)")
		baseStr = fs.String("base", "2026-01-01T00:00:00Z", "RFC 3339 anchor for the virtual time axis")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	records, err := loadTrace(*inPath)
	if err != nil {
		return err
	}
	base, err := time.Parse(time.RFC3339, *baseStr)
	if err != nil {
		return fmt.Errorf("bad -base: %w", err)
	}
	w := out
	if *outPath != "" {
		g, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer g.Close()
		w = g
	}
	if err := trace.FormatCommonLog(w, records, base); err != nil {
		return err
	}
	if *outPath != "" {
		fmt.Fprintf(out, "exported %d page requests to %s\n", len(records), *outPath)
	}
	return nil
}
