package sweep

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"wsnloc/internal/alg"
	"wsnloc/internal/core"
	"wsnloc/internal/exec"
	"wsnloc/internal/expt"
	"wsnloc/internal/metrics"
	"wsnloc/internal/obs"
	"wsnloc/internal/wsnerr"
)

// Options tunes one sweep execution.
type Options struct {
	// OutDir is the persistence root (cache objects, plus the shard journal
	// of a sharded run). Empty runs fully in memory: nothing is cached and
	// nothing can resume.
	OutDir string
	// Workers bounds how many cells execute concurrently (0 = NumCPU,
	// 1 = sequential). Purely a wall-clock knob: results and summaries are
	// identical for every value.
	Workers int
	// Resume reuses cached cell results instead of recomputing them. A cold
	// run (Resume false) ignores existing entries but still writes fresh
	// ones, so a subsequent resume sees them.
	Resume bool
	// Tracer, when non-nil and enabled, receives every sweep.* event plus
	// the per-trial events of executed cells, parented sweep → cell →
	// trial. Must be safe for concurrent use when Workers != 1 — every
	// tracer in internal/obs is.
	Tracer obs.Tracer
	// Metrics, when non-nil, receives the engine's live instruments: cache
	// hit/miss counters (wsnloc_sweep_cache_{hits,misses}_total), the
	// in-flight cell gauge (wsnloc_sweep_inflight_cells), and the per-cell
	// execution-duration histogram (wsnloc_sweep_cell_seconds). Purely
	// observational: results are identical with or without it.
	Metrics *obs.Registry
	// Pool, when non-nil, is the shared execution plane cells fan out on
	// (the daemon passes its request pool here). Nil runs on a transient
	// pool scoped to this sweep. Results and summaries are identical either
	// way; Workers still bounds this sweep's concurrency.
	Pool *exec.Pool

	// Shards splits the cell grid across a fleet: a run with Shards > 1
	// executes only the cells whose spec-hash prefix maps to ShardIndex
	// (see ShardOf — deterministic, disjoint, covering), claims the shard
	// with a crash-safe lease in OutDir, and journals every resolved cell
	// to journal.<ShardIndex>.jsonl for Merge. 0 or 1 means unsharded.
	// Sharded runs require OutDir (the shared coordination substrate).
	Shards int
	// ShardIndex is this worker's shard in [0, Shards).
	ShardIndex int
	// LeaseTTL is the shard-lease staleness horizon (0 = DefaultLeaseTTL):
	// a holder that stops heartbeating for this long loses the shard to
	// the next claimant. Purely a liveness knob — duplicated execution
	// after a steal is idempotent and cannot change results.
	LeaseTTL time.Duration
	// Owner names this worker in shard leases (diagnostics only; empty
	// derives host:pid).
	Owner string
}

// engineMetrics is the nil-safe instrumentation facade over Options.Metrics.
type engineMetrics struct {
	hits, misses *obs.Counter
	inflight     *obs.Gauge
	cellSeconds  *obs.Histogram

	// Shard-plane instruments (only moved by sharded runs).
	shardCells     *obs.Counter
	leaseAcquired  *obs.Counter
	leaseStolen    *obs.Counter
	journalRecords *obs.Counter
}

func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	if reg == nil {
		return nil
	}
	return &engineMetrics{
		hits:        reg.Counter("wsnloc_sweep_cache_hits_total"),
		misses:      reg.Counter("wsnloc_sweep_cache_misses_total"),
		inflight:    reg.Gauge("wsnloc_sweep_inflight_cells"),
		cellSeconds: reg.Histogram("wsnloc_sweep_cell_seconds", obs.DurationBuckets()),

		shardCells:     reg.Counter("wsnloc_sweep_shard_cells_total"),
		leaseAcquired:  reg.Counter("wsnloc_sweep_shard_lease_acquired_total"),
		leaseStolen:    reg.Counter("wsnloc_sweep_shard_lease_stolen_total"),
		journalRecords: reg.Counter("wsnloc_sweep_shard_journal_records_total"),
	}
}

func (m *engineMetrics) cellStart() {
	if m != nil {
		m.inflight.Add(1)
	}
}

func (m *engineMetrics) cellEnd() {
	if m != nil {
		m.inflight.Add(-1)
	}
}

func (m *engineMetrics) hit() {
	if m != nil {
		m.hits.Inc()
	}
}

// miss records one executed cell: a cache miss (or a cold run that never
// consulted the cache) and its execution wall time.
func (m *engineMetrics) miss(dur time.Duration) {
	if m != nil {
		m.misses.Inc()
		m.cellSeconds.Observe(dur.Seconds())
	}
}

// shardCell records one cell resolved (computed or cache-hit) by a sharded
// run, plus its journal record.
func (m *engineMetrics) shardCell() {
	if m != nil {
		m.shardCells.Inc()
		m.journalRecords.Inc()
	}
}

// leased records one shard-lease acquisition, stolen or clean.
func (m *engineMetrics) leased(stole bool) {
	if m != nil {
		m.leaseAcquired.Inc()
		if stole {
			m.leaseStolen.Inc()
		}
	}
}

// CellResult is one cell's outcome inside a completed sweep.
type CellResult struct {
	// Index is the cell's position in Spec.Cells order.
	Index int
	// Cell is the executed unit; Key its content address.
	Cell Cell
	Key  string
	// Cached reports whether the result came from the cache (true) or was
	// executed by this run (false).
	Cached bool
	// Eval is the pooled evaluation over the cell's trials.
	Eval metrics.Eval
}

// Result is a completed sweep: every cell's evaluation in deterministic
// (cell index) order plus the execute/reuse split. A sharded run's result
// is partial by design: Cells holds only this shard's cells (Index is
// still the global grid position), Skipped counts the cells other shards
// own, and Merge reassembles the full grid from the shared output
// directory.
type Result struct {
	Spec     Spec
	Cells    []CellResult
	Executed int
	Cached   int

	// Shards/Shard echo the partition of a sharded run (0/0 when
	// unsharded); Skipped is how many grid cells belong to other shards.
	Shards  int
	Shard   int
	Skipped int
}

// Run executes the sweep with background context. See RunCtx.
func Run(sw Spec, opts Options) (*Result, error) {
	return RunCtx(context.Background(), sw, opts)
}

// RunCtx expands the sweep into cells and executes them on the shared
// bounded execution plane (internal/exec). Each finished cell is persisted
// to the content-addressed cache before the next one starts, so a cancel or
// kill loses at most the in-flight cells; resuming with the same OutDir and
// Resume=true re-runs none of the completed ones.
// Cancellation stops handing out cells, aborts in-flight trials at round
// granularity, joins the fan-out, and returns ctx's error.
//
// With Shards > 1 the run executes only the cells ShardOf assigns to
// ShardIndex, under a crash-safe shard lease, journaling every resolved
// cell to journal.<ShardIndex>.jsonl in OutDir; Merge folds the shards'
// output back into the full grid.
func RunCtx(ctx context.Context, sw Spec, opts Options) (out *Result, err error) {
	sw = sw.Normalize()
	cells, err := sw.Cells() // validates
	if err != nil {
		return nil, err
	}
	if err := validateSharding(opts); err != nil {
		return nil, err
	}
	sharded := opts.Shards > 1

	// Partition. Keys are content addresses, so the assignment is a pure
	// function of the sweep document: every fleet member expanding the same
	// document computes the same disjoint, covering split, independent of
	// worker counts or scheduling.
	keys := make([]string, len(cells))
	local := make([]int, 0, len(cells))
	for i, c := range cells {
		if keys[i], err = c.Key(); err != nil {
			return nil, fmt.Errorf("sweep: cell %d: %w", i, err)
		}
		if !sharded || ShardOf(keys[i], opts.Shards) == opts.ShardIndex {
			local = append(local, i)
		}
	}

	workers := opts.Workers
	if workers < 0 {
		return nil, fmt.Errorf("sweep: %w: workers must be >= 0, got %d", wsnerr.ErrBadConfig, workers)
	}
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(local) {
		workers = len(local)
	}
	em := newEngineMetrics(opts.Metrics)

	var cache *Cache
	if opts.OutDir != "" {
		if cache, err = OpenCache(opts.OutDir); err != nil {
			return nil, err
		}
	}

	var shardJ *shardJournal
	if sharded {
		// Claim the shard before touching its journal. A fresh lease held
		// by a live worker bounces this run (ErrShardHeld); a stale one is
		// taken over — safe, because every cell write below is
		// content-addressed and idempotent.
		owner := opts.Owner
		if owner == "" {
			owner = defaultOwner()
		}
		lease, stole, lerr := AcquireShardLease(opts.OutDir, opts.ShardIndex, owner, opts.LeaseTTL)
		if lerr != nil {
			return nil, lerr
		}
		em.leased(stole)
		lease.Heartbeat(0)
		defer lease.Release()

		// Sharded runs journal self-validating cell records — the Merge
		// substrate — one file per shard, so concurrent shards never
		// interleave one stream.
		if shardJ, err = openShardJournal(opts.OutDir, opts.ShardIndex); err != nil {
			return nil, err
		}
		defer func() {
			if jerr := shardJ.Close(); jerr != nil && err == nil {
				out, err = nil, fmt.Errorf("sweep: shard journal: %w", jerr)
			}
		}()
	}

	sweepAttrs := map[string]interface{}{
		"name": sw.Name, "cells": len(cells), "workers": workers,
		"resume": opts.Resume, "engine_version": EngineVersion,
	}
	if sharded {
		sweepAttrs["shards"] = opts.Shards
		sweepAttrs["shard"] = opts.ShardIndex
	}
	sweepSpan := obs.StartSpan(opts.Tracer, "sweep", sweepAttrs)
	cellTr := sweepSpan.Tracer() // cells become children of the sweep span

	var shardSpan *obs.Span
	if sharded {
		// sweep → sweep.shard → sweep.cell: shard progress rides the span
		// plane with its own scope.
		shardSpan = obs.StartSpan(cellTr, "sweep.shard", map[string]interface{}{
			"shard": opts.ShardIndex, "shards": opts.Shards,
			"cells": len(local), "skipped": len(cells) - len(local),
		})
		cellTr = shardSpan.Tracer()
	}
	endAs := func(status string, fields map[string]interface{}) {
		if shardSpan != nil {
			shardSpan.EndAs(status, fields)
		}
		sweepSpan.EndAs(status, fields)
	}

	pool := opts.Pool
	if pool == nil {
		// No shared plane supplied: a transient pool scoped to this sweep,
		// closed and fully joined before returning.
		var perr error
		pool, perr = exec.NewPool(exec.Config{Workers: workers})
		if perr != nil {
			endAs("error", map[string]interface{}{"err": perr.Error()})
			return nil, perr
		}
		defer func() {
			pool.Close()
			pool.Drain(context.Background())
		}()
	}

	results := make([]CellResult, len(cells))
	ferr := pool.ForEach(ctx, len(local), workers, func(ctx context.Context, i int) error {
		gi := local[i]
		var err error
		results[gi], err = runOne(ctx, gi, cells[gi], keys[gi], cache, shardJ, opts, cellTr, em)
		return err
	})
	if ferr != nil {
		if ctx.Err() != nil {
			endAs("canceled", nil)
		} else {
			endAs("error", map[string]interface{}{"err": ferr.Error()})
		}
		return nil, ferr
	}

	out = &Result{Spec: sw, Skipped: len(cells) - len(local)}
	if sharded {
		out.Shards, out.Shard = opts.Shards, opts.ShardIndex
	}
	out.Cells = make([]CellResult, 0, len(local))
	for _, gi := range local {
		r := results[gi]
		out.Cells = append(out.Cells, r)
		if r.Cached {
			out.Cached++
		} else {
			out.Executed++
		}
	}
	if shardSpan != nil {
		shardSpan.EndWith(map[string]interface{}{
			"executed": out.Executed, "cached": out.Cached, "skipped": out.Skipped,
		})
	}
	sweepSpan.EndWith(map[string]interface{}{
		"executed": out.Executed, "cached": out.Cached,
	})
	return out, nil
}

// runOne resolves one cell: cache hit (under Resume) or execution, then
// persistence and journaling. Each cell runs under its own span
// (sweep.cell.start / sweep.cell.done), a child of the sweep span, and the
// cell's trial events are parented to it. In a sharded run every resolved
// cell — hit or computed — is appended to the shard journal, so a resumed
// shard's journal is self-contained for Merge (duplicate records across
// attempts are idempotent and deduplicated there).
func runOne(ctx context.Context, i int, c Cell, key string, cache *Cache, shardJ *shardJournal, opts Options, tr obs.Tracer, em *engineMetrics) (CellResult, error) {
	res := CellResult{Index: i, Cell: c, Key: key}
	sp := obs.StartSpan(tr, "sweep.cell", map[string]interface{}{
		"cell": i, "alg": c.Spec.Algorithm, "key": key, "trials": c.Trials,
	})
	em.cellStart()
	defer em.cellEnd()
	record := func(eval metrics.Eval) {
		if shardJ != nil {
			shardJ.record(i, c, key, eval)
			em.shardCell()
		}
	}
	start := time.Now()
	if opts.Resume && cache != nil {
		if e, ok := cache.Load(key); ok {
			res.Cached = true
			res.Eval = e.Eval
			em.hit()
			record(e.Eval)
			endCell(sp, res)
			return res, nil
		}
	}
	eval, err := runCell(ctx, c, sp.Tracer())
	if err != nil {
		sp.EndAs("error", map[string]interface{}{"err": err.Error()})
		return CellResult{}, fmt.Errorf("sweep: cell %d (%s): %w", i, c.Spec.Algorithm, err)
	}
	em.miss(time.Since(start))
	res.Eval = eval
	if cache != nil {
		// Store before journaling: a journal record always implies a durable
		// cache object, so a tear between the two loses at most the record —
		// Merge recovers the cell from the cache.
		if err := cache.Store(&Entry{
			Key: key, Engine: EngineVersion, Spec: c.Spec, Trials: c.Trials, Eval: eval,
		}); err != nil {
			sp.EndAs("error", map[string]interface{}{"err": err.Error()})
			return CellResult{}, err
		}
	}
	record(eval)
	endCell(sp, res)
	return res, nil
}

// runCell executes the cell's Monte-Carlo trials sequentially (the sweep
// parallelizes across cells, not inside them) via the shared expt runner.
// The spec's Seed shifts the scenario seed base, so the sweep's seed axis
// deterministically varies both topology and algorithm streams per trial.
func runCell(ctx context.Context, c Cell, tr obs.Tracer) (metrics.Eval, error) {
	if _, err := alg.New(c.Spec.Algorithm, c.Spec.AlgOpts); err != nil {
		return metrics.Eval{}, err
	}
	s := c.Spec.Scenario
	s.Seed ^= c.Spec.Seed * 0x9E3779B97F4A7C15
	newAlg := func() core.Algorithm {
		a, err := alg.New(c.Spec.Algorithm, c.Spec.AlgOpts)
		if err != nil {
			// Unreachable: the construction above already vetted name+opts.
			panic(err)
		}
		return a
	}
	return expt.RunTrialsOpts(ctx, s, newAlg, c.Trials, expt.RunOpts{Workers: 1, Tracer: tr})
}

// endCell closes a cell span with the cell's pooled evaluation.
func endCell(sp *obs.Span, r CellResult) {
	e := r.Eval
	sp.EndWith(map[string]interface{}{
		"cached":   r.Cached,
		"mean_err": e.MeanErr(),
		"rmse":     e.RMSE(),
		"coverage": e.Coverage(),
		"msgs":     e.Messages,
		"bytes":    e.Bytes,
	})
}
