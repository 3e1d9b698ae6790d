// Command wsnloc-bench regenerates the evaluation tables and figures of
// DESIGN.md §4.
//
// Usage:
//
//	wsnloc-bench -e E2              # one experiment, quick quality
//	wsnloc-bench -e all -full       # the whole evaluation at paper scale
//	wsnloc-bench -e E3 -trials 10 -scale 1.0
//	wsnloc-bench -e E2 -format csv  # machine-readable output
//	wsnloc-bench -list              # list experiment ids
//	wsnloc-bench -e all -timeout 5m # bound the run; exit 1 on expiry
//
// Observability:
//
//	wsnloc-bench -json bench.json   # per-algorithm JSON summary (replaces -e)
//	wsnloc-bench -e E2 -trace out.jsonl -cpuprofile cpu.pprof -memprofile mem.pprof
//	wsnloc-bench -e all -obs-http :6060         # live ops plane: /metrics /events /debug/pprof
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wsnloc/internal/expt"
	"wsnloc/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("wsnloc-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		id      = fs.String("e", "all", "experiment id (E1..E15) or 'all'")
		full    = fs.Bool("full", false, "paper-scale quality (8 trials, full sizes)")
		trials  = fs.Int("trials", 0, "override Monte-Carlo trials")
		scale   = fs.Float64("scale", 0, "override network-size scale (1.0 = paper scale)")
		format  = fs.String("format", "text", "output format: text|csv")
		list    = fs.Bool("list", false, "list experiments and exit")
		conv    = fs.String("conv", "", "BNCL message-convolution path: auto|sparse|fft ('' = auto)")
		censor  = fs.Float64("censor", 0, "BNCL message-censoring threshold (0 = off)")
		prune   = fs.Float64("prune", 0, "BNCL belief support-pruning floor, relative to the belief max (0 = off, must be < 1)")
		workers = fs.Int("workers", 0, "simulator worker-pool size per localization (0 = GOMAXPROCS, 1 = sequential; results identical)")
		timeout = fs.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit); exits 1 on expiry")

		jsonPath   = fs.String("json", "", "write a per-algorithm JSON benchmark summary to this path (runs the summary instead of -e)")
		jsonAlgs   = fs.String("json-algs", "", "comma-separated algorithm list for -json (default: the E1 set)")
		tracePath  = fs.String("trace", "", "write a JSONL trace of trial/round/phase events to this path")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this path")
		memProfile = fs.String("memprofile", "", "write a heap profile to this path")
		obsAddr    = fs.String("obs-http", "", "serve the live ops plane (/metrics, /events, /healthz, /buildinfo, /debug/pprof) on this address, e.g. :6060")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range expt.All() {
			fmt.Fprintf(stdout, "%-4s %-8s %s\n", e.ID, e.Ref, e.Title)
		}
		return 0
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	q := expt.Quick()
	if *full {
		q = expt.Full()
	}
	if *trials > 0 {
		q.Trials = *trials
	}
	if *scale > 0 {
		q.Scale = *scale
	}
	q.SimWorkers = *workers
	q.Conv = *conv
	q.Censor = *censor
	q.Prune = *prune

	sinks, err := obs.Start(obs.Flags{Trace: *tracePath, HTTP: *obsAddr, Stderr: stderr})
	if err != nil {
		fmt.Fprintln(stderr, "wsnloc-bench:", err)
		return 1
	}
	defer func() {
		if err := sinks.Close(); err != nil {
			fmt.Fprintln(stderr, "wsnloc-bench:", err)
			if code == 0 {
				code = 1
			}
		}
	}()
	q.Tracer = sinks.Tracer
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "wsnloc-bench:", err)
			return 1
		}
		defer stop()
	}
	if *memProfile != "" {
		defer func() {
			if err := obs.WriteHeapProfile(*memProfile); err != nil {
				fmt.Fprintln(stderr, "wsnloc-bench:", err)
			}
		}()
	}

	if *jsonPath != "" {
		// Trace-sink health is checked by the deferred handler on every path.
		return runSummary(ctx, stdout, stderr, q, *jsonPath, *jsonAlgs)
	}

	var selected []expt.Experiment
	if strings.EqualFold(*id, "all") {
		selected = expt.All()
	} else {
		e, err := expt.ByID(*id)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		selected = []expt.Experiment{e}
	}

	for _, e := range selected {
		start := time.Now()
		var err error
		switch *format {
		case "csv":
			err = e.RunCSVCtx(ctx, stdout, q)
		case "text", "":
			err = e.RunCtx(ctx, stdout, q)
		default:
			fmt.Fprintf(stderr, "unknown format %q\n", *format)
			return 2
		}
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				fmt.Fprintf(stderr, "wsnloc-bench: %s canceled (timeout %s): %v\n", e.ID, *timeout, err)
			} else {
				fmt.Fprintf(stderr, "%s failed: %v\n", e.ID, err)
			}
			return 1
		}
		if *format != "csv" {
			fmt.Fprintf(stdout, "[%s done in %.1fs]\n", e.ID, time.Since(start).Seconds())
		}
	}
	return 0
}

// runSummary executes the machine-readable benchmark: every algorithm in
// algsCSV (default: the E1 set) on the default scenario at quality q, a
// compact human table on stdout, and the stable JSON document at path.
func runSummary(ctx context.Context, stdout, stderr io.Writer, q expt.Quality, path, algsCSV string) int {
	var algs []string
	if algsCSV != "" {
		for _, a := range strings.Split(algsCSV, ",") {
			if a = strings.TrimSpace(a); a != "" {
				algs = append(algs, a)
			}
		}
	}
	sum, err := expt.SummarizeCtx(ctx, q, algs, q.Tracer)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			fmt.Fprintln(stderr, "wsnloc-bench: summary canceled:", err)
		} else {
			fmt.Fprintln(stderr, "wsnloc-bench:", err)
		}
		return 1
	}

	fmt.Fprintf(stdout, "benchmark summary — n=%d, %d trials\n", sum.Scenario.N, sum.Trials)
	fmt.Fprintf(stdout, "%-16s %9s %9s %9s %6s %10s %9s\n",
		"algorithm", "mean(m)", "p95(m)", "mean/R", "cov", "msgs/node", "wall(s)")
	for _, a := range sum.Algorithms {
		fmt.Fprintf(stdout, "%-16s %9.2f %9.2f %9.3f %6.2f %10.1f %9.2f\n",
			a.Algorithm, a.MeanErr, a.P95Err, a.NormMean, a.Coverage, a.MsgsPerNode, a.WallSec)
	}

	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(stderr, "wsnloc-bench:", err)
		return 1
	}
	werr := sum.WriteJSON(f)
	cerr := f.Close()
	if werr != nil || cerr != nil {
		fmt.Fprintln(stderr, "wsnloc-bench: writing summary failed")
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return 0
}
