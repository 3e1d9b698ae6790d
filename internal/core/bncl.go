package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"wsnloc/internal/bayes"
	"wsnloc/internal/geom"
	"wsnloc/internal/mathx"
	"wsnloc/internal/obs"
	"wsnloc/internal/rng"
	"wsnloc/internal/sim"
	"wsnloc/internal/topology"
	"wsnloc/internal/wsnerr"
)

// Estimator selects how a point estimate is read from the posterior.
type Estimator int

const (
	// EstimatorMean reports the posterior mean (MMSE) — the default, and
	// the better choice under quadratic loss.
	EstimatorMean Estimator = iota
	// EstimatorMAP reports the highest-probability grid cell. Useful when
	// the posterior is multi-modal and the mean would fall between modes
	// (e.g. inside an obstacle). Grid mode only; particle mode always
	// reports the mean.
	EstimatorMAP
)

// Mode selects the belief representation of BNCL.
type Mode int

const (
	// GridMode discretizes the deployment area; robust to multi-modality.
	GridMode Mode = iota
	// ParticleMode uses weighted samples (nonparametric BP); scales to
	// large areas without grid-resolution cost.
	ParticleMode
)

// Config tunes the BNCL protocol. The zero value plus a PreKnowledge choice
// is a usable configuration; see the default* constants.
type Config struct {
	Mode Mode
	// GridNX/GridNY set the belief grid resolution (GridMode). Default 40.
	GridNX, GridNY int
	// Particles sets the particle count (ParticleMode). Default 150.
	Particles int
	// HopRounds is the length of the anchor hop-flood phase. Default 20.
	HopRounds int
	// BPRounds caps the belief-propagation phase. Default 15.
	BPRounds int
	// Epsilon is the per-node L1 belief-change convergence threshold.
	// Default 0.02.
	Epsilon float64
	// MessageFloor is the damping floor applied to incoming messages, as a
	// fraction of each message's max. Default 2e-3.
	MessageFloor float64
	// PK selects the pre-knowledge terms.
	PK PreKnowledge
	// Estimator selects the point-estimate rule (grid mode).
	Estimator Estimator
	// Refine enables post-convergence local grid refinement (grid mode):
	// each node re-solves its posterior on a fine grid around its coarse
	// estimate, at zero extra radio traffic. Breaks the grid-resolution
	// accuracy floor for ~1 extra local compute pass.
	Refine bool
	// Conv selects the message-convolution path (grid mode): ConvAuto (the
	// zero value) dispatches each message between the sparse row-run scatter
	// and the cached-spectrum FFT path via a deterministic cost model;
	// ConvSparse / ConvFFT force one side. Unlike Workers this is part of
	// the algorithm — the FFT path perturbs floating point — so it
	// participates in Spec hashing (internal/alg). For any fixed value,
	// results remain bit-identical across worker counts.
	Conv bayes.ConvPath
	// Censor, when > 0, enables message censoring: an unknown node whose
	// per-round belief change has stayed below Censor for censorK
	// consecutive BP rounds suppresses its broadcast (neighbors keep using
	// their cached convolved message), and resumes the moment a fresh
	// neighbor message moves its belief by Censor or more. Grid mode
	// compares against the L1 belief change, particle mode against the
	// mean/spread change normalized by R — the same scales Epsilon uses, so
	// useful values sit at or above Epsilon. Like Conv this is part of the
	// algorithm (it participates in Spec hashing); for any fixed value,
	// results stay bit-identical across worker counts. 0 disables.
	Censor float64
	// Prune, when > 0, prunes belief support after every recompute: cells
	// below Prune·max are zeroed and the survivors renormalized, shrinking
	// each subsequent support scan, convolution, and broadcast. The prior is
	// never pruned, so pruning is not sticky — mass can return to a pruned
	// cell on a later round. Must be in [0,1); part of the algorithm, like
	// Censor. 0 disables. Grid mode only.
	Prune float64
	// Workers sets the simulator's per-round worker-pool size: 0 uses
	// GOMAXPROCS, 1 forces the sequential engine. Results are bit-identical
	// for every value (see sim.Config.Workers); it is not part of the
	// algorithm.
	Workers int
	// Tracer receives structured per-round and per-phase events (see
	// internal/obs). Nil or the no-op tracer keeps the solver on its
	// untraced fast path; it is not part of the algorithm.
	Tracer obs.Tracer
}

// Exported defaults of the zero-value Config knobs. Spec canonicalization
// (internal/alg) fills them explicitly so a spec that spells out a default
// hashes identically to one that leaves the field zero.
const (
	DefaultGridN     = 40
	DefaultParticles = 150
	DefaultBPRounds  = 15
)

const (
	defaultGridN     = DefaultGridN
	defaultParticles = DefaultParticles
	defaultHopRounds = 20
	defaultBPRounds  = DefaultBPRounds
	defaultEpsilon   = 0.02
	defaultMsgFloor  = 2e-3
)

// censorK is how many consecutive quiet rounds (belief change below
// Config.Censor) a node waits before censoring its broadcast. Fixed rather
// than configurable: one quiet round is routinely followed by a correction,
// two in a row almost never.
const censorK = 2

// Validate rejects configuration values no BNCL instance can honor; zero
// means "use the default" throughout, so only explicitly negative knobs (or
// out-of-range probabilities) are invalid. Failures wrap wsnerr.ErrBadConfig.
func (c Config) Validate() error {
	bad := func(field string, v interface{}) error {
		return fmt.Errorf("core: %w: %s must be >= 0, got %v", wsnerr.ErrBadConfig, field, v)
	}
	switch {
	case c.GridNX < 0:
		return bad("GridNX", c.GridNX)
	case c.GridNY < 0:
		return bad("GridNY", c.GridNY)
	case c.Particles < 0:
		return bad("Particles", c.Particles)
	case c.HopRounds < 0:
		return bad("HopRounds", c.HopRounds)
	case c.BPRounds < 0:
		return bad("BPRounds", c.BPRounds)
	case c.Workers < 0:
		return bad("Workers", c.Workers)
	case c.Epsilon < 0:
		return bad("Epsilon", c.Epsilon)
	case c.MessageFloor < 0:
		return bad("MessageFloor", c.MessageFloor)
	case c.Censor < 0:
		return bad("Censor", c.Censor)
	case c.Prune < 0:
		return bad("Prune", c.Prune)
	}
	if c.Prune >= 1 {
		return fmt.Errorf("core: %w: Prune must be in [0,1), got %v", wsnerr.ErrBadConfig, c.Prune)
	}
	if !c.Conv.Valid() {
		return fmt.Errorf("core: %w: Conv must be auto, sparse or fft, got %d",
			wsnerr.ErrBadConfig, int(c.Conv))
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.GridNX <= 0 {
		c.GridNX = defaultGridN
	}
	if c.GridNY <= 0 {
		c.GridNY = defaultGridN
	}
	if c.Particles <= 0 {
		c.Particles = defaultParticles
	}
	if c.HopRounds <= 0 {
		c.HopRounds = defaultHopRounds
	}
	if c.BPRounds <= 0 {
		c.BPRounds = defaultBPRounds
	}
	if c.Epsilon <= 0 {
		c.Epsilon = defaultEpsilon
	}
	if c.MessageFloor <= 0 {
		c.MessageFloor = defaultMsgFloor
	}
	return c
}

// BNCL is the Bayesian-network cooperative localization algorithm.
type BNCL struct {
	Cfg Config
}

// NewGrid returns grid-mode BNCL with the given pre-knowledge.
func NewGrid(pk PreKnowledge) *BNCL {
	return &BNCL{Cfg: Config{Mode: GridMode, PK: pk}}
}

// NewParticle returns particle-mode BNCL with the given pre-knowledge.
func NewParticle(pk PreKnowledge) *BNCL {
	return &BNCL{Cfg: Config{Mode: ParticleMode, PK: pk}}
}

// Name implements Algorithm.
func (b *BNCL) Name() string {
	mode := "grid"
	if b.Cfg.Mode == ParticleMode {
		mode = "particle"
	}
	pk := "pk"
	if !b.Cfg.PK.UseRegion && !b.Cfg.PK.UseHopAnnuli && !b.Cfg.PK.UseNegativeEvidence {
		pk = "nopk"
	}
	return fmt.Sprintf("bncl-%s-%s", mode, pk)
}

// env is the shared context the node programs close over. Everything here is
// either immutable during the run, safe for concurrent use (kernels), or
// partitioned per node (nodeStreams, nodeTrace) — the invariants the parallel
// round engine relies on.
type env struct {
	p       *Problem
	cfg     Config
	grid    *geom.Grid
	kernels *kernelCache
	// nodeStreams[i] is node i's private randomness.
	nodeStreams []*rng.Stream
	// nodeTrace[i] collects node i's per-BP-round convergence diagnostics;
	// only node i's goroutine writes it (trace.go).
	nodeTrace [][]nodeRound
	// convStats[i] counts node i's convolutions per path (and, when timeConv
	// is set, their wall time); only node i's goroutine writes its slot.
	convStats []convStat
	// pruneStats[i] accumulates the mass and cells node i's support pruning
	// removed; only node i's goroutine writes its slot.
	pruneStats []pruneStat
	// timeConv enables per-convolution timing — only when a tracer consumes
	// it, so the untraced hot path never calls the clock.
	timeConv bool
	// anchorDist[a] is anchor a's distance table on grid (see distTable),
	// shared read-only by every grid node's prior; nil for non-anchors. The
	// priors are built in BP's first round, after which the tables are
	// dropped.
	anchorDist [][]float64
	// trace is the deterministic node-id-order reduction of nodeTrace,
	// computed once after the run.
	trace []roundTrace
}

// Localize implements Algorithm: it wires one program per node onto the
// simulator, runs the two protocol phases (hop flood, then BP), and reads
// the posterior means back out.
func (b *BNCL) Localize(p *Problem, stream *rng.Stream) (*Result, error) {
	return b.LocalizeCtx(context.Background(), p, stream)
}

// LocalizeCtx implements ContextAlgorithm: Localize bounded by a context.
// The simulator checks ctx between protocol rounds, so a cancel or deadline
// returns ctx's error within one round, with the per-round worker pool fully
// drained (no leaked goroutines) and — when a tracer is attached — a final
// "canceled" trace event recording how far the run got. An uncanceled run is
// bit-identical to Localize for every worker count.
func (b *BNCL) LocalizeCtx(ctx context.Context, p *Problem, stream *rng.Stream) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := b.Cfg.Validate(); err != nil {
		return nil, err
	}
	cfg := b.Cfg.withDefaults()

	bounds := p.Deploy.Region.Bounds()
	e := &env{
		p:           p,
		cfg:         cfg,
		grid:        geom.NewGrid(bounds, cfg.GridNX, cfg.GridNY),
		nodeStreams: make([]*rng.Stream, p.Deploy.N()),
		nodeTrace:   make([][]nodeRound, p.Deploy.N()),
		convStats:   make([]convStat, p.Deploy.N()),
		pruneStats:  make([]pruneStat, p.Deploy.N()),
		timeConv:    obs.Enabled(cfg.Tracer),
	}
	e.kernels = newKernelCache(e)
	if cfg.Mode == GridMode {
		// Tabulate every measured link's kernel up front so the concurrent
		// BP phase runs against a read-mostly cache; when the FFT path can
		// engage, its kernel spectra are prewarmed for the same reason.
		e.kernels.prewarm(p.Graph.Links)
		if cfg.Conv != bayes.ConvSparse {
			e.kernels.prewarmSpectra()
		}
		if cfg.PK.UseHopAnnuli {
			e.anchorDist = make([][]float64, p.Deploy.N())
			for i, pos := range p.Deploy.Pos {
				if p.Deploy.Anchor[i] {
					e.anchorDist[i] = distTable(e.grid, pos)
				}
			}
		}
	}
	for i := range e.nodeStreams {
		e.nodeStreams[i] = stream.Split(uint64(i) + 1)
	}

	n := p.Deploy.N()
	programs := make([]sim.Node, n)
	readers := make([]estimateReader, n)
	for i := 0; i < n; i++ {
		var prog interface {
			sim.Node
			estimateReader
		}
		switch cfg.Mode {
		case ParticleMode:
			prog = newParticleNode(e, i)
		default:
			prog = newGridNode(e, i)
		}
		programs[i] = prog
		readers[i] = prog
	}

	simCfg := sim.Config{
		Workers:     cfg.Workers,
		Loss:        p.Loss,
		DelayJitter: p.Jitter,
		Energy:      sim.DefaultEnergy(),
		Seed:        stream.Uint64(),
	}
	rt := newRunTrace(cfg.Tracer, b, p, e)
	simCfg.OnRound = func(round int, stats sim.Stats) {
		if round == cfg.HopRounds {
			// Every grid node built its prior in this round.
			e.anchorDist = nil
		}
		if rt != nil {
			rt.onRound(round, stats)
		}
	}
	net, err := sim.NewNetwork(p.Graph, programs, simCfg)
	if err != nil {
		if rt != nil {
			rt.emitFailed(0, err)
		}
		return nil, err
	}
	stats, err := net.RunCtx(ctx, cfg.HopRounds+cfg.BPRounds+2)
	if err != nil {
		if rt != nil {
			if ctx.Err() != nil {
				rt.emitCanceled(stats.Rounds, err)
			} else {
				rt.emitFailed(stats.Rounds, err)
			}
		}
		return nil, err
	}

	res := NewResult(p)
	res.Rounds = stats.Rounds
	res.Stats = stats
	e.trace = e.aggregate()
	res.Convergence = e.convergence()
	readStart := time.Now()
	for i := 0; i < n; i++ {
		if p.Deploy.Anchor[i] {
			continue
		}
		est, conf, ok := readers[i].Estimate()
		res.Est[i] = est
		res.Confidence[i] = conf
		res.Localized[i] = ok
	}
	if rt != nil {
		rt.emitConv(e)
		rt.emitPrune(e)
		rt.emitPhase("hopflood", 0, cfg.HopRounds)
		rt.emitPhase("bp", cfg.HopRounds, cfg.HopRounds+cfg.BPRounds+2)
		if cfg.Refine && cfg.Mode == GridMode {
			rt.emitRefine(time.Since(readStart))
		}
		rt.emitRun(res)
	}
	return res, nil
}

// anchorDistOf returns ah's anchor distance table on the run's grid.
func (e *env) anchorDistOf(ah anchorHop) []float64 { return e.anchorDist[ah.id] }

// hopBounds returns the per-hop distance bounds for the annulus priors: the
// upper bound is the longest link the propagation model can form, the soft
// lower bound is gamma·R (expected flood progress per hop).
func (e *env) hopBounds() (rUp, rLo float64) {
	rUp = e.p.Prop.MaxRange()
	if rUp < e.p.R {
		rUp = e.p.R
	}
	return rUp, e.cfg.PK.hopGamma() * e.p.R
}

// estimateReader exposes a node program's final estimate.
type estimateReader interface {
	// Estimate returns the posterior-mean position, a confidence radius,
	// and whether the node considers itself localized (i.e. it heard from
	// at least one anchor).
	Estimate() (mathx.Vec2, float64, bool)
}

// Protocol message kinds and payloads.
const (
	kindHops   = "bncl/hops"
	kindBelief = "bncl/belief"
)

// hopEntry advertises "anchor a at pos is `hops` hops away from the sender".
type hopEntry struct {
	anchor int
	pos    mathx.Vec2
	hops   int
}

// hopEntryBytes is the on-air size of one hop entry: id(2) + pos(4) + hop(1).
const hopEntryBytes = 7

// digest is the compact summary of a node's belief relayed to two-hop
// neighbors for negative evidence: id(2) + mean(4) + spread(1) = 7 bytes.
type digest struct {
	id     int
	mean   mathx.Vec2
	spread float64
}

const digestBytes = 7

// beliefMsg is the per-round broadcast of a node's posterior summary.
type beliefMsg struct {
	grid *bayes.Belief // GridMode
	// support is grid.Support(bayes.SupportEps), scanned once by the sender
	// and shared read-only by every receiver's path dispatch and sparse
	// scatter (GridMode).
	support  []int
	particle *bayes.ParticleBelief // ParticleMode
	mean     mathx.Vec2
	spread   float64
	digests  []digest
}

// bytesOf estimates the on-air size of the message: grid beliefs ship their
// support cells at 3 bytes each, particle beliefs 5 bytes per particle, plus
// the digest list and a 4-byte header.
func (m *beliefMsg) bytesOf() int {
	b := 4 + digestBytes*len(m.digests) + 3*len(m.support)
	if m.particle != nil {
		b += 5 * m.particle.M()
	}
	return b
}

// kernelCache shares the radial message kernels across links: kernels depend
// only on the measured distance, so measurements are quantized to half a
// cell and the resulting kernels memoized. Lookups are safe under the
// parallel round engine: Localize prewarms the cache from the measurement
// graph so the BP phase is read-mostly, and the RWMutex covers any residual
// miss (duplicate builds are identical, so either copy may win).
type kernelCache struct {
	e     *env
	quant float64
	mu    sync.RWMutex
	table map[int]*bayes.RadialKernel
}

func newKernelCache(e *env) *kernelCache {
	q := e.grid.CellW / 2
	if e.grid.CellH < e.grid.CellW {
		q = e.grid.CellH / 2
	}
	return &kernelCache{e: e, quant: q, table: make(map[int]*bayes.RadialKernel)}
}

// prewarm tabulates the kernel of every measured link.
func (kc *kernelCache) prewarm(links []topology.Link) {
	for _, l := range links {
		kc.forMeasurement(l.Meas)
	}
}

// prewarmSpectra builds the FFT spectrum of every cached kernel, so the
// dense convolution path of the BP phase reads immutable spectra. Kernels
// built after prewarm (a cache miss under loss-mutated graphs) fall back to
// the kernel's own once-guarded lazy build.
func (kc *kernelCache) prewarmSpectra() {
	kc.mu.RLock()
	kernels := make([]*bayes.RadialKernel, 0, len(kc.table))
	for _, k := range kc.table {
		kernels = append(kernels, k)
	}
	kc.mu.RUnlock()
	for _, k := range kernels {
		k.PrewarmSpectrum()
	}
}

// forMeasurement returns the kernel k(d) = p(meas | d) tabulated out to
// meas + 4σ.
func (kc *kernelCache) forMeasurement(meas float64) *bayes.RadialKernel {
	key := int(math.Round(meas / kc.quant))
	kc.mu.RLock()
	k, ok := kc.table[key]
	kc.mu.RUnlock()
	if ok {
		return k
	}
	k = kc.build(key)
	kc.mu.Lock()
	if prev, ok := kc.table[key]; ok {
		k = prev
	} else {
		kc.table[key] = k
	}
	kc.mu.Unlock()
	return k
}

// build tabulates the kernel for one quantized-measurement key.
func (kc *kernelCache) build(key int) *bayes.RadialKernel {
	qMeas := float64(key) * kc.quant
	sigma := kc.e.p.Ranger.Sigma(qMeas)
	maxDist := qMeas + 4*sigma
	if hr := kc.e.p.R * 1.1; maxDist < hr && isFlatRanger(kc.e.p.Ranger) {
		maxDist = hr
	}
	return bayes.NewRadialKernel(kc.e.grid, func(d float64) float64 {
		return kc.e.p.Ranger.Likelihood(qMeas, d)
	}, maxDist, 0)
}

// isFlatRanger reports whether the ranger is the connectivity-only
// HopRanger, whose flat likelihood needs kernel support out to R regardless
// of the reported measurement.
func isFlatRanger(r interface{ Sigma(float64) float64 }) bool {
	type flat interface{ IsConnectivityOnly() bool }
	f, ok := r.(flat)
	return ok && f.IsConnectivityOnly()
}
