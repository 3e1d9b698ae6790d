// Package wsnloc is a library for cooperative localization in wireless
// sensor networks using Bayesian networks with pre-knowledge, reproducing
// Lo, Wu & Chung, "Cooperative Localization with Pre-Knowledge Using
// Bayesian Network for Wireless Sensor Networks" (ICPP Workshops 2007).
//
// The package is a facade over the internal implementation:
//
//   - Scenario describes a simulated network (size, region shape, radio and
//     ranging models, anchors) and Build materializes it into a Problem.
//   - BNCLGrid / BNCLParticle construct the paper's algorithm; Baseline
//     constructs any of the comparison algorithms (DV-Hop, MDS-MAP, …).
//   - Localize runs an algorithm; Evaluate scores the result.
//
// Quickstart:
//
//	p, _ := wsnloc.Scenario{N: 150, Seed: 1}.Build()
//	res, _ := wsnloc.Localize(p, wsnloc.BNCLGrid(wsnloc.AllPreKnowledge()), 42)
//	fmt.Println(wsnloc.Evaluate(p, res).MeanErr())
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// regenerated evaluation.
package wsnloc

import (
	"context"
	"io"

	"wsnloc/internal/alg"
	"wsnloc/internal/core"
	"wsnloc/internal/crlb"
	"wsnloc/internal/expt"
	"wsnloc/internal/geom"
	"wsnloc/internal/mathx"
	"wsnloc/internal/metrics"
	"wsnloc/internal/obs"
	"wsnloc/internal/radio"
	"wsnloc/internal/rng"
	"wsnloc/internal/serve"
	"wsnloc/internal/sweep"
	"wsnloc/internal/topology"
	"wsnloc/internal/wsnerr"
)

// Sentinel errors of the public API. Every failure a caller can provoke —
// an invalid scenario, a bad configuration, an unknown algorithm name, a
// degenerate topology — wraps exactly one of these, so errors.Is classifies
// it without string matching. Context cancellation surfaces as the standard
// context.Canceled / context.DeadlineExceeded.
var (
	// ErrBadScenario reports an invalid Scenario field (negative node count,
	// anchor fraction outside [0,1], non-positive radio range or field size,
	// unknown shape/propagation/ranging name).
	ErrBadScenario = wsnerr.ErrBadScenario
	// ErrBadConfig reports an invalid algorithm or simulator configuration.
	ErrBadConfig = wsnerr.ErrBadConfig
	// ErrBadProblem reports an inconsistent Problem passed to an algorithm.
	ErrBadProblem = wsnerr.ErrBadProblem
	// ErrUnknownAlgorithm reports a name absent from the algorithm registry.
	ErrUnknownAlgorithm = wsnerr.ErrUnknownAlgorithm
	// ErrDisconnected reports a topology too degenerate for the requested
	// quantity (e.g. a singular CRLB information matrix).
	ErrDisconnected = wsnerr.ErrDisconnected
	// ErrBadSpec reports an invalid run Spec.
	ErrBadSpec = wsnerr.ErrBadSpec
)

// Vec2 is a position in the 2-D deployment plane (meters).
type Vec2 = mathx.Vec2

// V2 constructs a Vec2.
func V2(x, y float64) Vec2 { return mathx.V2(x, y) }

// Problem is a materialized localization problem: deployment ground truth,
// the measured connectivity graph, and the radio models.
type Problem = core.Problem

// Result is a localization outcome (estimates, coverage, traffic stats).
type Result = core.Result

// Algorithm is any localization method runnable by Localize.
type Algorithm = core.Algorithm

// PreKnowledge selects the prior information BNCL exploits.
type PreKnowledge = core.PreKnowledge

// BNCLConfig is the full tuning surface of the BNCL algorithm.
type BNCLConfig = core.Config

// Scenario compactly describes a simulated network; its Build method
// materializes a Problem. The zero value (plus a Seed) is the library's
// default configuration: 150 nodes, 100×100 m, R = 15 m, 10% anchors,
// unit-disk connectivity, 10% Gaussian TOA ranging noise.
type Scenario = expt.Scenario

// Eval is a scored localization outcome; see its methods for error,
// coverage and traffic metrics.
type Eval = metrics.Eval

// AllPreKnowledge enables every pre-knowledge term (deployment region, hop
// annuli, negative evidence).
func AllPreKnowledge() PreKnowledge { return core.AllPreKnowledge() }

// NoPreKnowledge disables every pre-knowledge term (the ablation setting).
func NoPreKnowledge() PreKnowledge { return core.NoPreKnowledge() }

// BNCLGrid returns the grid-belief variant of the paper's algorithm.
func BNCLGrid(pk PreKnowledge) Algorithm { return core.NewGrid(pk) }

// BNCLParticle returns the particle-belief (nonparametric BP) variant.
func BNCLParticle(pk PreKnowledge) Algorithm { return core.NewParticle(pk) }

// BNCLWithConfig returns a fully tuned BNCL instance.
func BNCLWithConfig(cfg BNCLConfig) Algorithm { return &core.BNCL{Cfg: cfg} }

// AlgOpts tunes construction of a registry algorithm (grid resolution,
// particle count, BP rounds, pre-knowledge, workers). The zero value means
// "library defaults"; it round-trips through JSON as part of Spec.
type AlgOpts = alg.Opts

// Baseline returns a comparison algorithm by name: centroid, w-centroid,
// min-max, dv-hop, dv-distance, ls-multilat, mds-map (plus the bncl-*
// names). Algorithms lists them. Equivalent to NewAlgorithm(name, AlgOpts{}).
func Baseline(name string) (Algorithm, error) {
	return NewAlgorithm(name, AlgOpts{})
}

// NewAlgorithm builds any registered algorithm by name with the given
// options. Unknown names wrap ErrUnknownAlgorithm; invalid options wrap
// ErrBadConfig. Algorithms lists the accepted names.
func NewAlgorithm(name string, opts AlgOpts) (Algorithm, error) {
	return alg.New(name, opts)
}

// Algorithms lists every registered algorithm name, sorted.
func Algorithms() []string { return alg.Names() }

// Localize runs the algorithm on the problem with a deterministic seed.
func Localize(p *Problem, alg Algorithm, seed uint64) (*Result, error) {
	return alg.Localize(p, rng.New(seed))
}

// LocalizeCtx is Localize bounded by a context: a cancel or deadline aborts
// the run at message-passing-round granularity (never mid-round, so an
// uncanceled run is bit-identical to Localize), drains the simulator's
// worker pool, and returns ctx's error.
func LocalizeCtx(ctx context.Context, a Algorithm, p *Problem, seed uint64) (*Result, error) {
	return core.LocalizeContext(ctx, a, p, rng.New(seed))
}

// Observability (see internal/obs for the event schema).

// Tracer consumes structured trace events from instrumented algorithms:
// per-round BNCL convergence (residual, ESS, traffic), per-phase wall time,
// and per-run timings. All provided tracers are safe for concurrent use.
type Tracer = obs.Tracer

// TraceEvent is one structured trace record.
type TraceEvent = obs.Event

// NopTracer returns the no-op tracer (the default: near-zero overhead).
func NopTracer() Tracer { return obs.Nop() }

// NewJSONLTracer returns a tracer writing one JSON object per event to w.
func NewJSONLTracer(w io.Writer) *obs.JSONL { return obs.NewJSONL(w) }

// NewMemoryTracer returns a tracer buffering events in memory (for tests
// and programmatic inspection).
func NewMemoryTracer() *obs.Memory { return obs.NewMemory() }

// NewLogTracer returns a tracer printing human-readable event lines to w.
func NewLogTracer(w io.Writer) *obs.Log { return obs.NewLog(w) }

// MultiTracer fans events out to every enabled tracer.
func MultiTracer(tracers ...Tracer) Tracer { return obs.Multi(tracers...) }

// WithTracer attaches a tracer to an algorithm: every Localize emits an
// "algorithm" timing event, and instrumented algorithms (BNCL, DV-Hop,
// DV-Distance, MDS-MAP) additionally emit their per-round / per-phase
// events. A nil or no-op tracer returns alg unchanged.
func WithTracer(alg Algorithm, tr Tracer) Algorithm { return core.Traced(alg, tr) }

// LocalizeTraced is Localize with a tracer attached for the one call.
func LocalizeTraced(p *Problem, alg Algorithm, seed uint64, tr Tracer) (*Result, error) {
	return core.Traced(alg, tr).Localize(p, rng.New(seed))
}

// MetricsRegistry is a lightweight counters/gauges/histograms registry with
// Prometheus-text and JSON exposition.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewMetricsSink returns a tracer that aggregates trace events into reg
// (attach alongside a JSONL tracer via MultiTracer to get both views).
func NewMetricsSink(reg *MetricsRegistry) Tracer { return obs.NewMetricsSink(reg) }

// Evaluate scores a result against the problem's ground truth.
func Evaluate(p *Problem, r *Result) Eval { return metrics.Evaluate(p, r) }

// MergeEvals pools evaluations across Monte-Carlo trials.
func MergeEvals(evals ...Eval) Eval { return metrics.Merge(evals...) }

// RunTrials runs `trials` Monte-Carlo repetitions of the scenario (seeds
// derived from s.Seed) and returns the pooled evaluation.
func RunTrials(s Scenario, alg Algorithm, trials int) (Eval, error) {
	return expt.RunTrials(s, alg, trials)
}

// RunTrialsCtx is RunTrials bounded by a context: a cancel or deadline stops
// handing out trials, aborts the in-flight ones at round granularity, joins
// the worker pool, and returns ctx's error.
func RunTrialsCtx(ctx context.Context, s Scenario, alg Algorithm, trials int) (Eval, error) {
	return expt.RunTrialsCtx(ctx, s, alg, trials)
}

// RunTrialsTraced is RunTrials over a worker pool with a tracer receiving
// one "trial.start"/"trial.done" span per repetition (plus the algorithms'
// own events, parented to their trial spans).
// newAlg must return a fresh algorithm per call when workers > 1; workers
// ≤ 1 runs the trials sequentially.
func RunTrialsTraced(s Scenario, newAlg func() Algorithm, trials, workers int, tr Tracer) (Eval, error) {
	return expt.RunTrialsOpts(context.Background(), s, newAlg, trials, expt.RunOpts{Workers: workers, Tracer: tr})
}

// Run specs: a Spec is the complete, versioned description of one run —
// scenario, algorithm name, tuning options, seed — and round-trips through
// JSON, so runs can be stored, diffed, and replayed byte-identically.

// Spec fully describes one localization run as a JSON-round-trippable job
// unit. The zero value of every omitted field means "library default".
type Spec = alg.Spec

// SpecVersion is the current Spec schema version (the Version field).
const SpecVersion = alg.SpecVersion

// ParseSpec decodes and validates a JSON Spec. Invalid documents wrap
// ErrBadSpec (or the more specific ErrBadScenario / ErrBadConfig /
// ErrUnknownAlgorithm).
func ParseSpec(data []byte) (Spec, error) { return alg.ParseSpec(data) }

// RunSpec builds the spec's scenario and algorithm and runs one localization
// bounded by ctx, returning the materialized problem and the result.
func RunSpec(ctx context.Context, sp Spec) (*Problem, *Result, error) {
	return sp.Run(ctx)
}

// SpecHash returns the content address of a spec: the hex SHA-256 of its
// canonical JSON (defaults filled, JSON key order irrelevant, wall-clock
// knobs like Workers stripped). Equal hashes mean "same computation, same
// result bytes" — the cache key of the sweep engine. Invalid specs wrap
// ErrBadSpec.
func SpecHash(sp Spec) (string, error) { return sp.Hash() }

// Sweeps: a SweepSpec declares an experiment grid (scenarios × algorithms ×
// option sets × seeds); the engine executes its cells on a bounded worker
// pool and persists each cell's evaluation to a content-addressed cache, so
// interrupted or repeated sweeps resume without recomputing completed cells.

// SweepSpec declares one experiment grid. See internal/sweep.Spec.
type SweepSpec = sweep.Spec

// SweepOptions tunes a sweep execution: output directory (the cell cache),
// worker count, resume behavior, tracer.
type SweepOptions = sweep.Options

// SweepResult is a completed sweep: every cell's evaluation in
// deterministic order. Its Summary method merges the paper-style curves.
type SweepResult = sweep.Result

// SweepSummary is the merged outcome of a sweep: per-cell statistics plus
// per-algorithm accuracy curves along the anchor-fraction and noise axes.
type SweepSummary = sweep.Summary

// SweepEngineVersion is baked into every sweep cache key; bumping it
// invalidates all cached cell results at once.
const SweepEngineVersion = sweep.EngineVersion

// ParseSweepSpec decodes and validates a JSON sweep document. Invalid
// documents wrap ErrBadSpec.
func ParseSweepSpec(data []byte) (SweepSpec, error) { return sweep.ParseSpec(data) }

// RunSweep executes the sweep with a background context. See RunSweepCtx.
func RunSweep(sw SweepSpec, opts SweepOptions) (*SweepResult, error) {
	return sweep.Run(sw, opts)
}

// RunSweepCtx expands the sweep into cells and executes them bounded by
// ctx. Every finished cell is cached before the next starts, so a cancel
// loses at most the in-flight cells; re-running with
// opts.Resume against the same OutDir re-runs zero completed cells.
func RunSweepCtx(ctx context.Context, sw SweepSpec, opts SweepOptions) (*SweepResult, error) {
	return sweep.RunCtx(ctx, sw, opts)
}

// Distributed sweeps: the grid partitions deterministically into shards by
// cell content address, each shard protected by a crash-safe lease in the
// shared output directory, and the shards' journals and cache merge back
// into the full result — byte-identical to a single-process run.

var (
	// ErrShardHeld reports a sharded sweep whose shard lease a live worker
	// already holds; retry later or run a different shard.
	ErrShardHeld = sweep.ErrShardHeld
	// ErrBadSweepJournal reports a shard journal that contradicts the sweep
	// grid or another journal — a journal from a different sweep document,
	// or corruption that survived a checksum.
	ErrBadSweepJournal = sweep.ErrBadJournal
	// ErrIncompleteSweep reports a merge over a grid with unresolved cells:
	// some shard has not run (or finished) yet.
	ErrIncompleteSweep = sweep.ErrIncomplete
)

// SweepShardOf returns which of shards a cell key belongs to: a pure
// function of the cell's content address, so any worker computes the same
// disjoint, covering partition.
func SweepShardOf(key string, shards int) int { return sweep.ShardOf(key, shards) }

// RunSweepSharded executes one shard of an N-way split of the sweep against
// opts.OutDir (required): only the cells whose content address maps to
// shardIndex run, under a crash-safe lease other workers respect. Run every
// shard — concurrently, from any mix of processes or hosts sharing the
// directory — then MergeSweep. A worker killed mid-shard is rerun with
// opts.Resume; completed cells are not recomputed.
func RunSweepSharded(ctx context.Context, sw SweepSpec, shards, shardIndex int, opts SweepOptions) (*SweepResult, error) {
	opts.Shards = shards
	opts.ShardIndex = shardIndex
	return sweep.RunCtx(ctx, sw, opts)
}

// MergeSweep folds the shard journals and content-addressed caches of one
// or more sweep output directories back into the full result, whose Summary
// is byte-identical to a single-process run of the same document. Merging
// never executes cells: unresolved cells wrap ErrIncompleteSweep, and
// inconsistent journals wrap ErrBadSweepJournal.
func MergeSweep(sw SweepSpec, outDirs ...string) (*SweepResult, error) {
	return sweep.Merge(sw, outDirs...)
}

// CRLB is the Cramér-Rao lower bound of a scenario: the best RMSE any
// unbiased ranging-only estimator can achieve on its geometry.
type CRLB = crlb.Bound

// ComputeCRLB evaluates the bound for a problem (see internal/crlb).
func ComputeCRLB(p *Problem) (*CRLB, error) { return crlb.Compute(p) }

// Mobile-target tracking extension (sequential Bayesian filtering).

// Tracker is a grid-based Bayesian filter for a mobile node, sharing BNCL's
// measurement and pre-knowledge models.
type Tracker = core.Tracker

// RangeObs is one ranging observation consumed by Tracker.Step.
type RangeObs = core.RangeObs

// Region is a subset of the plane used for deployment maps and tracking
// priors.
type Region = geom.Region

// Rect is an axis-aligned rectangle region.
type Rect = geom.Rect

// NewRect builds a rectangle region from two corners.
func NewRect(x0, y0, x1, y1 float64) Rect { return geom.NewRect(x0, y0, x1, y1) }

// Ranger is a ranging measurement model (see the radio package models).
type Ranger = radio.Ranger

// TOARanger returns a Gaussian time-of-arrival ranging model with standard
// deviation sigmaFrac·r.
func TOARanger(r, sigmaFrac float64) Ranger {
	return radio.TOAGaussian{R: r, SigmaFrac: sigmaFrac}
}

// NewTracker builds a mobile-node tracker over region (nil for no map
// prior) discretized at gridN×gridN over bounds, with per-step displacement
// bound maxStep.
func NewTracker(region Region, bounds Rect, gridN int, maxStep float64, ranger Ranger) (*Tracker, error) {
	return core.NewTracker(region, bounds, gridN, maxStep, ranger)
}

// EKFTracker is the extended-Kalman-filter tracking baseline: cheaper than
// Tracker but unimodal and unable to use map pre-knowledge.
type EKFTracker = core.EKFTracker

// NewEKFTracker starts an EKF at start with the given initial uncertainty,
// per-step motion bound, and ranging-noise function.
func NewEKFTracker(start Vec2, startStd, maxStep float64, sigmaOf func(float64) float64) (*EKFTracker, error) {
	return core.NewEKFTracker(start, startStd, maxStep, sigmaOf)
}

// Stream is a deterministic random stream (consumed by Ranger.Measure and
// the mobility generators).
type Stream = rng.Stream

// NewStream returns a seeded deterministic random stream.
func NewStream(seed uint64) *Stream { return rng.New(seed) }

// RandomWaypoint generates random-waypoint mobility traces for the tracking
// extension.
type RandomWaypoint = topology.RandomWaypoint

// Service plane: run localization as a long-running daemon (wsnlocd) that
// accepts Spec / SweepSpec JSON over HTTP, executes on one shared bounded
// worker pool (backpressure via 429 when the admission queue is full), and
// memoizes results content-addressed by canonical spec hash — identical
// specs return byte-identical cached bytes instantly.

// ServiceConfig tunes an embedded localization service: execution-pool
// size, admission-queue depth, body/time limits, cache directory, the
// response memo's disk tier (MemoDir — exact response bytes survive
// restarts), slow-client protections (ReadHeaderTimeout and friends,
// applied via ServiceConfig.HTTPServer), and observability wiring.
// Identical in-flight requests coalesce onto one execution regardless of
// configuration.
type ServiceConfig = serve.Config

// Service is an embeddable localization service: an http.Handler over the
// /v1 API plus the execution plane behind it. Mount its Handler in any mux;
// call Shutdown to drain gracefully.
type Service = serve.Server

// NewService builds a localization service and starts its execution pool.
func NewService(cfg ServiceConfig) (*Service, error) { return serve.New(cfg) }

// SolveResponse is the POST /v1/solve result document: spec hash, echoed
// normalized spec, evaluation statistics, and per-node estimates.
type SolveResponse = serve.SolveResponse

// ServiceClient is a typed client for a running wsnlocd daemon.
type ServiceClient = serve.Client

// ErrServiceBusy reports a 429 from the daemon: the admission queue was
// full and the request was not accepted. Retry after serve.RetryAfter(err).
var ErrServiceBusy = serve.ErrBusy

// NewServiceClient returns a client for the daemon at base
// (e.g. "http://127.0.0.1:8080").
func NewServiceClient(base string) *ServiceClient { return serve.NewClient(base) }

// SubmitSpec submits one Spec to a wsnlocd daemon at base and blocks for
// the result. The Cached field of the response reports whether the daemon
// answered from its cross-request memo.
func SubmitSpec(ctx context.Context, base string, sp Spec) (*serve.SolveResult, error) {
	return serve.NewClient(base).Solve(ctx, sp)
}
