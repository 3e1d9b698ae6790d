// Command wsnloc runs one localization scenario and prints per-node
// estimates plus a summary.
//
// Usage:
//
//	wsnloc -n 150 -anchors 0.1 -alg bncl-grid -seed 7
//	wsnloc -alg dv-hop -shape c -noise 0.2 -v
//	wsnloc -alg bncl-grid -plot        # ASCII field map of the outcome
//	wsnloc -spec run.json              # replay a full Spec (scenario+alg+seed)
//	wsnloc -timeout 30s                # bound the run; exit 1 on expiry
//
// Observability:
//
//	wsnloc -trace out.jsonl            # per-round/phase JSONL trace
//	wsnloc -metrics out.json           # metrics-registry dump of the run
//	wsnloc -obs-http :6060             # live ops plane: /metrics /events /debug/pprof
//	wsnloc -cpuprofile cpu.pprof -memprofile mem.pprof
//	wsnloc -v                          # phase/round log lines on stderr
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
	"strings"
	"syscall"

	algpkg "wsnloc/internal/alg"
	"wsnloc/internal/core"
	"wsnloc/internal/expt"
	"wsnloc/internal/metrics"
	"wsnloc/internal/obs"
	"wsnloc/internal/rng"
	"wsnloc/internal/viz"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// writeFileWith creates path and streams write(f) into it.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("wsnloc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n       = fs.Int("n", 150, "node count")
		anchors = fs.Float64("anchors", 0.10, "anchor fraction")
		field   = fs.Float64("field", 100, "field side length (m)")
		r       = fs.Float64("r", 15, "radio range (m)")
		noise   = fs.Float64("noise", 0.10, "ranging noise sigma as fraction of R")
		shape   = fs.String("shape", "square", "deployment shape: square|c|o|x|h|corridor")
		prop    = fs.String("prop", "unitdisk", "propagation: unitdisk|qudg|shadow|doi")
		ranger  = fs.String("ranger", "toa", "ranging: toa|rssi|nlos|hop")
		loss    = fs.Float64("loss", 0, "packet loss probability")
		algName = fs.String("alg", "bncl-grid",
			"algorithm: "+strings.Join(algpkg.Names(), "|"))
		seed    = fs.Uint64("seed", 1, "random seed")
		conv    = fs.String("conv", "", "BNCL message-convolution path: auto|sparse|fft ('' = auto)")
		censor  = fs.Float64("censor", 0, "BNCL message-censoring threshold (0 = off)")
		prune   = fs.Float64("prune", 0, "BNCL belief support-pruning floor, relative to the belief max (0 = off, must be < 1)")
		workers = fs.Int("workers", 0, "simulator worker-pool size (0 = GOMAXPROCS, 1 = sequential; results identical)")
		timeout = fs.Duration("timeout", 0, "abort the run after this duration (0 = no limit); exits 1 on expiry")
		verbose = fs.Bool("v", false, "print per-node estimates")
		plot    = fs.Bool("plot", false, "print an ASCII field map of the outcome")
		pngPath = fs.String("png", "", "write a PNG field map of the outcome to this path")
		algs    = fs.Bool("algs", false, "list algorithms and exit")
		config  = fs.String("config", "", "JSON file with a scenario (replaces the scenario flags; -seed/-alg still apply)")
		specArg = fs.String("spec", "", "JSON file with a full run Spec (replaces the scenario flags, -alg and -seed)")

		tracePath   = fs.String("trace", "", "write a JSONL trace of per-round/per-phase events to this path")
		obsAddr     = fs.String("obs-http", "", "serve the live ops plane (/metrics, /events, /healthz, /buildinfo, /debug/pprof) on this address, e.g. :6060")
		metricsPath = fs.String("metrics", "", "write a JSON metrics-registry dump of the run to this path")
		promPath    = fs.String("metrics-prom", "", "write the metrics registry in Prometheus text format to this path")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile to this path")
		memProfile  = fs.String("memprofile", "", "write a heap profile to this path")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *algs {
		for _, a := range expt.AlgorithmNames() {
			fmt.Fprintln(stdout, a)
		}
		return 0
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	s := expt.Scenario{
		N: *n, AnchorFrac: *anchors, Field: *field, R: *r,
		NoiseFrac: *noise, Shape: *shape, Prop: *prop, Ranger: *ranger,
		Loss: *loss, Seed: *seed,
	}
	if *config != "" {
		data, err := os.ReadFile(*config)
		if err != nil {
			fmt.Fprintln(stderr, "wsnloc:", err)
			return 1
		}
		s = expt.Scenario{Seed: *seed}
		if err := json.Unmarshal(data, &s); err != nil {
			fmt.Fprintf(stderr, "wsnloc: parsing %s: %v\n", *config, err)
			return 1
		}
	}
	// Flag path: scenario seed is -seed, the algorithm stream is split off it.
	algOpts := algpkg.Opts{Workers: *workers, Conv: *conv, Censor: *censor, Prune: *prune}
	algSeed := *seed ^ 0xBEEF
	if *specArg != "" {
		data, err := os.ReadFile(*specArg)
		if err != nil {
			fmt.Fprintln(stderr, "wsnloc:", err)
			return 1
		}
		sp, err := algpkg.ParseSpec(data)
		if err != nil {
			fmt.Fprintf(stderr, "wsnloc: parsing %s: %v\n", *specArg, err)
			return 1
		}
		sp = sp.Normalize()
		s = sp.Scenario
		*algName = sp.Algorithm
		algOpts = sp.AlgOpts
		algSeed = sp.Seed
	}
	p, err := s.Build()
	if err != nil {
		fmt.Fprintln(stderr, "wsnloc:", err)
		return 1
	}

	// Observability wiring: compose the requested sinks into one tracer and
	// hand it to the algorithm builder.
	sinks, err := obs.Start(obs.Flags{
		Trace: *tracePath, Verbose: *verbose, Metrics: *metricsPath != "" || *promPath != "",
		HTTP: *obsAddr, Stderr: stderr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "wsnloc:", err)
		return 1
	}
	defer func() {
		if err := sinks.Close(); err != nil {
			fmt.Fprintln(stderr, "wsnloc:", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "wsnloc:", err)
			return 1
		}
		defer stop()
	}

	algOpts.Tracer = sinks.Tracer
	alg, err := expt.NewAlgorithm(*algName, algOpts)
	if err != nil {
		fmt.Fprintln(stderr, "wsnloc:", err)
		return 1
	}
	res, err := core.LocalizeContext(ctx, alg, p, rng.New(algSeed))
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			fmt.Fprintf(stderr, "wsnloc: run canceled (timeout %s): %v\n", *timeout, err)
		} else {
			fmt.Fprintln(stderr, "wsnloc:", err)
		}
		return 1
	}

	if *metricsPath != "" {
		if err := writeFileWith(*metricsPath, sinks.Registry.WriteJSON); err != nil {
			fmt.Fprintln(stderr, "wsnloc:", err)
			return 1
		}
	}
	if *promPath != "" {
		if err := writeFileWith(*promPath, sinks.Registry.WritePrometheus); err != nil {
			fmt.Fprintln(stderr, "wsnloc:", err)
			return 1
		}
	}
	if *memProfile != "" {
		if err := obs.WriteHeapProfile(*memProfile); err != nil {
			fmt.Fprintln(stderr, "wsnloc:", err)
			return 1
		}
	}

	if *plot {
		fmt.Fprint(stdout, viz.FieldMap(p, res, 72))
		fmt.Fprintln(stdout)
	}
	if *pngPath != "" {
		f, err := os.Create(*pngPath)
		if err != nil {
			fmt.Fprintln(stderr, "wsnloc:", err)
			return 1
		}
		werr := viz.WriteFieldPNG(f, p, res, 800)
		cerr := f.Close()
		if werr != nil || cerr != nil {
			fmt.Fprintln(stderr, "wsnloc: writing png failed")
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *pngPath)
	}

	if *verbose {
		fmt.Fprintf(stdout, "%-5s %-7s %-22s %-22s %-9s %s\n",
			"node", "kind", "truth", "estimate", "err(m)", "conf(m)")
		for i := 0; i < p.Deploy.N(); i++ {
			kind := "node"
			if p.Deploy.Anchor[i] {
				kind = "anchor"
			} else if !res.Localized[i] {
				kind = "lost"
			}
			errStr := "-"
			if res.Localized[i] && !p.Deploy.Anchor[i] {
				errStr = fmt.Sprintf("%.2f", res.Est[i].Dist(p.Deploy.Pos[i]))
			}
			fmt.Fprintf(stdout, "%-5d %-7s %-22s %-22s %-9s %.2f\n",
				i, kind, p.Deploy.Pos[i], res.Est[i], errStr, res.Confidence[i])
		}
		fmt.Fprintln(stdout)
	}

	e := metrics.Evaluate(p, res)
	fmt.Fprintf(stdout, "algorithm      %s\n", alg.Name())
	fmt.Fprintf(stdout, "nodes          %d (%d anchors), avg degree %.1f\n",
		p.Deploy.N(), p.Deploy.NumAnchors(), p.Graph.AvgDegree())
	fmt.Fprintf(stdout, "mean error     %.2f m (%.3f R)\n", e.MeanErr(), e.NormMean())
	fmt.Fprintf(stdout, "median error   %.2f m (%.3f R)\n", e.MedianErr(), e.NormMedian())
	fmt.Fprintf(stdout, "rmse           %.2f m (%.3f R)\n", e.RMSE(), e.NormRMSE())
	fmt.Fprintf(stdout, "p90 error      %.2f m\n", e.P90Err())
	fmt.Fprintf(stdout, "coverage       %.1f%% (%.1f%% within 0.5R)\n",
		100*e.Coverage(), 100*e.CoverageWithin(0.5*p.R))
	fmt.Fprintf(stdout, "traffic        %d msgs (%.1f/node), %d bytes, %.0f uJ\n",
		e.Messages, e.MsgsPerNode(), e.Bytes, e.EnergyuJ)
	fmt.Fprintf(stdout, "rounds         %d\n", res.Rounds)
	return 0
}
