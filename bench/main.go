// Command wsnloc-bench is the repository benchmark. For one workload it
// starts a fresh wsnlocd, drives the workload's traffic through it for a
// fixed window, checks every answer, and prints the end-to-end metrics — or,
// with -trace 1, the per-layer metrics, which add a traced in-process replay
// of the same inputs — as one JSON object on the last line of standard
// output. bench/run.sh builds it and wsnlocd and runs it; bench/README.md
// describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// workers is the daemon's pool size and the benchmark's connection count:
// the two cores the benchmark is sized for.
const workers = 2

// Open-loop validity bounds: a generator later than maxLateP99 at p99, or a
// window that closes with more than maxBacklog worth of arrivals still queued
// for a connection, measured the generator or a saturated daemon, not
// service time. A miss holds a connection for tens of milliseconds, so a
// short queue behind it is normal; a saturated daemon's queue grows for the
// whole window.
const (
	maxLateP99 = 5 * time.Millisecond
	maxBacklog = 250 * time.Millisecond
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	daemon   string // path of a built cmd/wsnlocd
	work     string // directory for the run's daemon state and replay output
	traceOut string
	quick    bool
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wsnloc-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var seconds float64
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: paper-solve, serve-mix, sweep-cells or scale-5k")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: every generated input derives from it")
	fs.Float64Var(&seconds, "seconds", 18, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "0 reports end-to-end metrics; 1 reports per-layer metrics")
	fs.StringVar(&cfg.daemon, "wsnlocd", "", "path of a built cmd/wsnlocd binary")
	fs.StringVar(&cfg.work, "work", ".bench_build/tmp", "directory for daemon state (removed after the run)")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1, write the replay's spans here as JSONL")
	fs.BoolVar(&cfg.quick, "quick", false, "shrink every workload's inputs for a smoke run of a few seconds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadNamed(cfg.workload)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "wsnloc-bench: unknown -workload %q\n", cfg.workload)
		return 2
	case seconds <= 0 || trace < 0 || trace > 1:
		fmt.Fprintln(stderr, "wsnloc-bench: -seconds must be positive and -trace 0 or 1")
		return 2
	case cfg.daemon == "":
		fmt.Fprintln(stderr, "wsnloc-bench: -wsnlocd is required (bench/run.sh builds it)")
		return 2
	}
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1

	b, err := runBench(ctx, cfg, w)
	if err != nil {
		fmt.Fprintln(stderr, "wsnloc-bench:", err)
		return 1
	}
	rep := b.report()
	b.printSummary(stderr, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "wsnloc-bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// bench is the state of one benchmark run.
type bench struct {
	cfg config
	w   workload
	sz  sizes
	dir string // this run's daemon state directories
	c   *client

	setups      []time.Duration // per set-up: daemon launch → /healthz 200 → fill done
	fillSamples []*sample
	window      []*sample // the measured window's requests
	elapsed     time.Duration
	open        bool     // the window was an open loop
	gen         genStats // open loops only
	scraped     delta    // /metrics.json over the window
	rssMB       float64

	reference map[string][]byte // hash → identity bytes of its execution
	// errs are the position errors over R of every localized node of every
	// checked solve, or the median error over R of every sweep cell.
	errs []float64
	// problems are run-level failures: an invalid open-loop window, or a
	// replay whose bytes differ from the daemon's.
	problems []string
	layers   map[string]float64
}

// setups is how many times set-up runs, each on a fresh daemon with fresh
// state; setup_s reports their median and the last daemon serves the window.
const setups = 3

func runBench(ctx context.Context, cfg config, w workload) (*bench, error) {
	b := &bench{cfg: cfg, w: w, sz: fullSizes}
	if cfg.quick {
		b.sz = quickSizes
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b.dir = dir
	if err := b.measure(ctx); err != nil {
		return nil, err
	}
	if err := b.check(ctx); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := b.traceLayers(ctx); err != nil {
			return nil, err
		}
	}
	return b, ctx.Err()
}

// measure sets up a daemon (three times, keeping the last), drives the
// measured window through it, and stops it; the daemon must drain cleanly.
func (b *bench) measure(ctx context.Context) (err error) {
	var d *daemon
	for i := range setups {
		if d != nil {
			b.c.close()
			if err := d.stop(); err != nil {
				return err
			}
		}
		var flags []string
		if b.w.flags != nil {
			flags = b.w.flags(filepath.Join(b.dir, fmt.Sprint(i)), b.sz)
		}
		start := time.Now()
		if d, err = startDaemon(ctx, b.cfg.daemon, workers, flags); err != nil {
			return err
		}
		b.c = newClient(d.base, workers)
		if b.w.fill != nil {
			b.w.fill(ctx, b)
		}
		b.setups = append(b.setups, time.Since(start))
	}
	defer func() {
		b.c.close()
		if serr := d.stop(); err == nil {
			err = serr
		}
	}()

	before, err := b.settledScrape(ctx, d)
	if err != nil {
		return err
	}
	b.w.drive(ctx, b)
	after, err := b.settledScrape(ctx, d)
	if err != nil {
		return err
	}
	b.scraped = delta{after: after, before: before}
	b.rssMB, err = d.peakRSSMB()
	return err
}

// settledScrape reads /metrics.json. In trace mode it first waits out one
// period of the daemon's runtime sampler, so the allocation and GC
// counters include everything up to now.
func (b *bench) settledScrape(ctx context.Context, d *daemon) (exposition, error) {
	if b.cfg.trace {
		time.Sleep(1100 * time.Millisecond)
	}
	return d.scrape(ctx)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eUnits and layerUnits name every metric the benchmark reports, with its
// unit; BENCHMARK.json lists the same names.
var e2eUnits = map[string]string{
	"setup_s":        "s",
	"latency_p50_ms": "ms",
	"throughput_rps": "1/s",
	"peak_rss_mb":    "MB",
	"norm_err_p50":   "ratio",
}

func (b *bench) report() report {
	rep := report{Correct: len(b.problems) == 0, Metrics: map[string]metric{}}
	for _, s := range b.all() {
		rep.Attempted++
		if s.fail != "" {
			rep.Failed++
			rep.Correct = false
		}
	}
	values := b.layers
	units := layerUnits
	if !b.cfg.trace {
		values, units = b.endToEnd(), e2eUnits
	}
	for name, unit := range units {
		v := values[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // only reachable with failed requests, which fail the run
		}
		rep.Metrics[name] = metric{Value: v, Unit: unit}
	}
	return rep
}

// all is every request of the run: set-up's, then the window's.
func (b *bench) all() []*sample {
	return append(append([]*sample{}, b.fillSamples...), b.window...)
}

// latencies are the window's latencies in ms; a failed request counts as
// +Inf, so it misses every latency limit.
func (b *bench) latencies() []float64 {
	out := make([]float64, len(b.window))
	for i, s := range b.window {
		out[i] = ms(s.latency)
		if s.fail != "" {
			out[i] = math.Inf(1)
		}
	}
	return out
}

func (b *bench) endToEnd() map[string]float64 {
	ok := 0
	for _, s := range b.window {
		if s.fail == "" {
			ok++
		}
	}
	return map[string]float64{
		"setup_s":        median(msOf(b.setups)) / 1e3,
		"latency_p50_ms": percentile(b.latencies(), 0.5),
		"throughput_rps": ratio(float64(ok), b.elapsed.Seconds()),
		"peak_rss_mb":    b.rssMB,
		"norm_err_p50":   median(b.errs),
	}
}

// printSummary writes a human-readable account of the run to w: every
// metric with its unit, the sample count behind each timing, and every
// failure or validity problem.
func (b *bench) printSummary(w io.Writer, rep report) {
	lat := b.latencies()
	fmt.Fprintf(w, "workload %s seed %d window %s: %d requests in the window, %d in set-up, %d failed\n",
		b.cfg.workload, b.cfg.seed, b.cfg.window, len(lat), len(b.fillSamples), rep.Failed)
	fmt.Fprintf(w, "  set-up: %v, median %.3fs\n", b.setups, median(msOf(b.setups))/1e3)
	fmt.Fprintf(w, "  latency over n=%d: p50 %.3fms p90 %.3fms p99 %.3fms; norm_err_p50 over %d errors\n",
		len(lat), percentile(lat, 0.5), percentile(lat, 0.9), percentile(lat, 0.99), len(b.errs))
	if b.open {
		fmt.Fprintf(w, "  generator: p99 late %.3fms over %d arrivals, backlog at window end %d\n",
			percentile(msOf(b.gen.late), 0.99), len(b.gen.late), b.gen.backlog)
	}
	for _, name := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[name]
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", name, m.Value, m.Unit)
	}
	shown := map[string]bool{}
	for _, s := range b.all() {
		if s.fail != "" && !shown[s.fail] && len(shown) < 5 {
			shown[s.fail] = true
			fmt.Fprintf(w, "  FAILED %s %s: %s\n", s.req.path, s.req.hash, s.fail)
		}
	}
	for _, why := range b.problems {
		fmt.Fprintln(w, "  FAILED:", why)
	}
}
