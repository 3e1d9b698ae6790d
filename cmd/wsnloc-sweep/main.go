// Command wsnloc-sweep executes an experiment grid — scenarios × algorithms
// × option sets × seeds — with a content-addressed result cache, so
// interrupted or repeated sweeps only compute the cells that are missing.
//
// Usage:
//
//	wsnloc-sweep -sweep sweep.json -out results/          # cold run
//	wsnloc-sweep -sweep sweep.json -out results/ -resume  # reuse cached cells
//	wsnloc-sweep -sweep sweep.json -out results/ -workers 8 -timeout 10m
//	wsnloc-sweep -expand sweep.json                       # print the cell list, run nothing
//
// A killed run (timeout, Ctrl-C) leaves every completed cell in
// out/objects/; re-running with -resume picks up where it stopped,
// re-executing zero completed cells. The merged summary (out/summary.json
// and the stdout tables) is byte-identical whether cells were computed or
// loaded from the cache.
//
// Observability:
//
//	wsnloc-sweep -sweep sweep.json -out results/ -trace run.jsonl  # sweep + trial events
//	wsnloc-sweep -sweep sweep.json -out results/ -v                # event lines on stderr
//	wsnloc-sweep -sweep sweep.json -obs-http :6060                 # live /metrics + /events while running
//
// Distributed sweeps: the grid can be split across processes (or hosts
// sharing the output directory) by content-addressed shard, each protected
// by a crash-safe lease, and merged afterwards:
//
//	wsnloc-sweep -sweep sweep.json -out results/ -shards 3 -shard-index 0
//	wsnloc-sweep -sweep sweep.json -out results/ -shards 3 -shard-index 1
//	wsnloc-sweep -sweep sweep.json -out results/ -shards 3 -shard-index 2
//	wsnloc-sweep -sweep sweep.json -out results/ -merge   # byte-identical to a single-process run
//
// A shard killed mid-run is resumed with the same command plus -resume; the
// merged summary is still byte-identical to an uninterrupted run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"wsnloc/internal/alg"
	"wsnloc/internal/obs"
	"wsnloc/internal/sweep"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("wsnloc-sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specPath  = fs.String("sweep", "", "JSON sweep document (required unless -expand)")
		outDir    = fs.String("out", "", "output directory for the cell cache, shard journals, and summary (empty = in-memory, nothing persisted)")
		resume    = fs.Bool("resume", false, "reuse cached cell results from -out instead of recomputing them")
		workers   = fs.Int("workers", 0, "concurrent cells (0 = all CPUs, 1 = sequential; results identical)")
		conv      = fs.String("conv", "", "BNCL message-convolution path (auto|sparse|fft) for option sets that leave it unset; changes cell cache keys")
		censor    = fs.Float64("censor", 0, "BNCL message-censoring threshold for option sets that leave it unset (0 = off); changes cell cache keys")
		prune     = fs.Float64("prune", 0, "BNCL belief support-pruning floor for option sets that leave it unset (0 = off, < 1); changes cell cache keys")
		timeout   = fs.Duration("timeout", 0, "abort the sweep after this duration (0 = no limit); completed cells stay cached, exit 1")
		expand    = fs.String("expand", "", "print the expanded cell list of this sweep document and exit")
		shards    = fs.Int("shards", 0, "split the grid into this many content-addressed shards and run only -shard-index (requires -out)")
		shardIdx  = fs.Int("shard-index", 0, "which shard of -shards this process runs, in [0, shards)")
		mergeOnly = fs.Bool("merge", false, "merge the shard journals and cache in -out into the full summary; runs nothing")
		leaseTTL  = fs.Duration("lease-ttl", 0, "shard lease time-to-live; a shard silent this long is presumed dead and its lease stolen (0 = default)")
		tracePath = fs.String("trace", "", "write a JSONL trace of sweep and trial events to this path")
		obsAddr   = fs.String("obs-http", "", "serve the live ops plane (/metrics, /events, /healthz, /buildinfo, /debug/pprof) on this address, e.g. :6060")
		verbose   = fs.Bool("v", false, "print sweep event lines on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *expand != "" {
		return expandOnly(*expand, stdout, stderr)
	}
	if *specPath == "" {
		fmt.Fprintln(stderr, "wsnloc-sweep: -sweep is required (see -h)")
		return 2
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "wsnloc-sweep:", err)
		return 1
	}
	sw, err := sweep.ParseSpec(data)
	if err != nil {
		fmt.Fprintf(stderr, "wsnloc-sweep: parsing %s: %v\n", *specPath, err)
		return 1
	}
	if *conv != "" || *censor != 0 || *prune != 0 {
		// These overrides are semantic (they participate in spec hashing), so
		// each only fills option sets that left its knob unspecified —
		// explicit per-set choices in the sweep document win.
		if len(sw.AlgOpts) == 0 {
			sw.AlgOpts = []alg.Opts{{}}
		}
		for i := range sw.AlgOpts {
			if *conv != "" && sw.AlgOpts[i].Conv == "" {
				sw.AlgOpts[i].Conv = *conv
			}
			if *censor != 0 && sw.AlgOpts[i].Censor == 0 {
				sw.AlgOpts[i].Censor = *censor
			}
			if *prune != 0 && sw.AlgOpts[i].Prune == 0 {
				sw.AlgOpts[i].Prune = *prune
			}
		}
	}

	if *mergeOnly {
		// Merge applies after the fill-unset overrides above: the grid (and
		// its cache keys) must match what the shard runs computed, so the
		// merge command takes the same -conv/-censor/-prune flags.
		if *outDir == "" {
			fmt.Fprintln(stderr, "wsnloc-sweep: -merge requires -out (the directory the shards wrote)")
			return 2
		}
		res, err := sweep.Merge(sw, *outDir)
		if err != nil {
			if errors.Is(err, sweep.ErrIncomplete) {
				fmt.Fprintf(stderr, "wsnloc-sweep: not every shard has finished: %v\n", err)
			} else {
				fmt.Fprintln(stderr, "wsnloc-sweep:", err)
			}
			return 1
		}
		if code := emitSummary(res, *outDir, "summary.json", stdout, stderr); code != 0 {
			return code
		}
		fmt.Fprintf(stdout, "cells %d: merged from shard journals and cache\n", len(res.Cells))
		return 0
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	sinks, err := obs.Start(obs.Flags{Trace: *tracePath, Verbose: *verbose, HTTP: *obsAddr, Stderr: stderr})
	if err != nil {
		fmt.Fprintln(stderr, "wsnloc-sweep:", err)
		return 1
	}
	defer func() {
		if err := sinks.Close(); err != nil {
			fmt.Fprintln(stderr, "wsnloc-sweep:", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	res, err := sweep.RunCtx(ctx, sw, sweep.Options{
		OutDir:     *outDir,
		Workers:    *workers,
		Resume:     *resume,
		Shards:     *shards,
		ShardIndex: *shardIdx,
		LeaseTTL:   *leaseTTL,
		Tracer:     sinks.Tracer,
		Metrics:    sinks.Registry,
	})
	if err != nil {
		switch {
		case errors.Is(err, sweep.ErrShardHeld):
			fmt.Fprintf(stderr, "wsnloc-sweep: %v — another worker is running this shard; pick a different -shard-index or wait out its lease\n", err)
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			fmt.Fprintf(stderr, "wsnloc-sweep: canceled (%v); completed cells remain cached in %s — rerun with -resume\n",
				err, *outDir)
		default:
			fmt.Fprintln(stderr, "wsnloc-sweep:", err)
		}
		return 1
	}

	// A shard writes summary.<index>.json — its slice of the grid — never
	// summary.json, which only -merge (the full grid, byte-identical to a
	// single-process run) produces.
	name := "summary.json"
	if *shards > 1 {
		name = fmt.Sprintf("summary.%d.json", *shardIdx)
		fmt.Fprintf(stdout, "shard %d/%d: %d local cells, %d skipped; merge with -merge once every shard has run\n",
			*shardIdx, *shards, len(res.Cells), res.Skipped)
	}
	if code := emitSummary(res, *outDir, name, stdout, stderr); code != 0 {
		return code
	}
	fmt.Fprintf(stdout, "cells %d: executed %d, cached %d\n",
		len(res.Cells), res.Executed, res.Cached)
	return 0
}

// emitSummary writes the result's summary into dir/name (when dir is set)
// and prints the curve tables.
func emitSummary(res *sweep.Result, dir, name string, stdout, stderr io.Writer) int {
	sum := res.Summary()
	if dir != "" {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(stderr, "wsnloc-sweep:", err)
			return 1
		}
		werr := sum.WriteJSON(f)
		cerr := f.Close()
		if werr != nil || cerr != nil {
			fmt.Fprintf(stderr, "wsnloc-sweep: writing %s failed\n", path)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	if t := sum.Table(); t != "" {
		fmt.Fprint(stdout, t)
	}
	return 0
}

// expandOnly prints the cell expansion of a sweep document, one JSON line
// per cell with its content-addressed key — the dry-run view of what a
// sweep would compute.
func expandOnly(path string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "wsnloc-sweep:", err)
		return 1
	}
	sw, err := sweep.ParseSpec(data)
	if err != nil {
		fmt.Fprintf(stderr, "wsnloc-sweep: parsing %s: %v\n", path, err)
		return 1
	}
	cells, err := sw.Cells()
	if err != nil {
		fmt.Fprintln(stderr, "wsnloc-sweep:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	for i, c := range cells {
		key, err := c.Key()
		if err != nil {
			fmt.Fprintln(stderr, "wsnloc-sweep:", err)
			return 1
		}
		if err := enc.Encode(map[string]interface{}{
			"cell": i, "key": key, "algorithm": c.Spec.Algorithm,
			"seed": c.Spec.Seed, "trials": c.Trials,
		}); err != nil {
			fmt.Fprintln(stderr, "wsnloc-sweep:", err)
			return 1
		}
	}
	return 0
}
