package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wsnloc"
	wexec "wsnloc/internal/exec"
	"wsnloc/internal/serve"
	"wsnloc/internal/sweep"
)

// The traced replay re-runs a sample of the window's inputs in-process and
// records a span around every call into a layer's public function. Spans
// are recorded by the benchmark itself, around the calls; BNCL's existing
// bncl.phase and bncl.conv events, taken through alg.Opts.Tracer, become
// children and attributes of the core span.

// span is one timed interval of the replay. A parent of 0 marks a root.
type span struct {
	id, parent int
	name       string
	start, end time.Time
	attrs      map[string]float64
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// recorder keeps the replay's spans in memory until the run ends. Safe for
// concurrent use.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// open starts a span now and returns its id; close ends it.
func (r *recorder) open(parent int, name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{id: len(r.spans) + 1, parent: parent, name: name, start: time.Now()})
	return len(r.spans)
}

func (r *recorder) close(id int, attrs map[string]float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].end = time.Now()
	r.spans[id-1].attrs = attrs
}

// add records a span whose interval is already known.
func (r *recorder) add(parent int, name string, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{id: len(r.spans) + 1, parent: parent, name: name, start: start, end: end})
}

// timed runs fn inside a span.
func (r *recorder) timed(parent int, name string, fn func() error) error {
	id := r.open(parent, name)
	err := fn()
	r.close(id, nil)
	return err
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time, indexed like spans: its duration
// minus the part of it that its children cover, overlapping children
// counted once and each child clipped to its parent.
func selfTimes(spans []span) []time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(a, b int) bool { return kids[a].start.Before(kids[b].start) })
		var covered time.Duration
		var reach time.Time // end of the union so far
		for _, k := range kids {
			from, to := later(k.start, s.start), earlier(k.end, s.end)
			from = later(from, reach)
			if to.After(from) {
				covered += to.Sub(from)
				reach = to
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func earlier(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// stage aggregates every span of one name.
type stage struct {
	n         int
	dur, self time.Duration
	attrs     map[string]float64 // summed
}

func stages(spans []span) map[string]*stage {
	self := selfTimes(spans)
	out := map[string]*stage{}
	for i, s := range spans {
		st := out[s.name]
		if st == nil {
			st = &stage{attrs: map[string]float64{}}
			out[s.name] = st
		}
		st.n++
		st.dur += s.dur()
		st.self += self[i]
		for k, v := range s.attrs {
			st.attrs[k] += v
		}
	}
	return out
}

// meanDur is a stage's mean span duration in unit (0 for a stage that never
// ran in this workload).
func (st *stage) meanDur(unit time.Duration) float64 {
	if st == nil || st.n == 0 {
		return 0
	}
	return float64(st.dur) / float64(st.n) / float64(unit)
}

func (st *stage) meanSelf(unit time.Duration) float64 {
	if st == nil || st.n == 0 {
		return 0
	}
	return float64(st.self) / float64(st.n) / float64(unit)
}

// writeSpans writes the spans as JSONL: one object per span with offsets
// from the first span's start, its duration and its self time.
func writeSpans(path string, spans []span) error {
	if len(spans) == 0 {
		return os.WriteFile(path, nil, 0o644)
	}
	self := selfTimes(spans)
	origin := spans[0].start
	for _, s := range spans {
		origin = earlier(origin, s.start)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, s := range spans {
		if err := enc.Encode(map[string]interface{}{
			"id": s.id, "parent": s.parent, "name": s.name,
			"start_us": s.start.Sub(origin).Microseconds(), "dur_us": s.dur().Microseconds(),
			"self_us": self[i].Microseconds(), "attrs": s.attrs,
		}); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// replayer runs one workload's replay.
type replayer struct {
	b    *bench
	rec  *recorder
	pool *wexec.Pool

	mu sync.Mutex
	// roots pairs each replayed request's root span with the daemon's
	// latency for the same input, for reconciliation.
	roots []rootPair
	// problems are replays whose bytes differ from the daemon's.
	problems []string

	sweepDir  string
	lastSweep *wsnloc.SweepResult

	speedup, overhead float64
}

type rootPair struct {
	id     int
	daemon time.Duration
}

// traceLayers runs the workload's replay and assembles every per-layer
// metric: /metrics.json deltas and response statistics of the window, and
// span statistics of the replay.
func (b *bench) traceLayers(ctx context.Context) error {
	pool, err := wexec.NewPool(wexec.Config{Workers: workers})
	if err != nil {
		return err
	}
	defer func() {
		pool.Close()
		pool.Drain(context.Background())
	}()
	rp := &replayer{b: b, rec: &recorder{}, pool: pool, sweepDir: filepath.Join(b.dir, "replay")}
	if err := b.w.replay(ctx, rp); err != nil {
		return err
	}
	b.problems = append(b.problems, rp.problems...)
	spans := rp.rec.snapshot()
	if b.cfg.traceOut != "" {
		if err := writeSpans(b.cfg.traceOut, spans); err != nil {
			return err
		}
	}
	b.layers = b.scrapeLayers()
	for k, v := range b.responseLayers() {
		b.layers[k] = v
	}
	for k, v := range rp.layers(spans) {
		b.layers[k] = v
	}
	return nil
}

// executions are the window's executed (miss) requests in send order.
func (b *bench) executions() []*sample {
	var out []*sample
	for _, s := range b.window {
		if s.fail == "" && s.verdict == "miss" {
			out = append(out, s)
		}
	}
	return out
}

// pooled replays each sample as one exec.Pool job, from `submitters`
// goroutines, under a root span per request; the time from Submit to the
// job starting is its exec.wait span.
func (rp *replayer) pooled(ctx context.Context, samples []*sample, submitters int, job func(ctx context.Context, parent int, req *request) error) error {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		errs = make([]error, len(samples))
	)
	for range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(samples); i = int(next.Add(1) - 1) {
				s := samples[i]
				root := rp.rec.open(0, "request")
				submitted := time.Now()
				j, err := rp.pool.Submit(ctx, "replay", nil, func(ctx context.Context, _ wsnloc.Tracer) error {
					rp.rec.add(root, "exec.wait", submitted, time.Now())
					return job(ctx, root, s.req)
				})
				if err == nil {
					err = j.Wait(ctx)
				}
				rp.rec.close(root, nil)
				errs[i] = err
				rp.mu.Lock()
				rp.roots = append(rp.roots, rootPair{root, s.latency})
				rp.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// compare checks replayed bytes against the daemon's answer for the hash.
func (rp *replayer) compare(req *request, out []byte) {
	if ref, ok := rp.b.reference[req.hash]; !ok || !bytes.Equal(ref, out) {
		rp.mu.Lock()
		rp.problems = append(rp.problems, fmt.Sprintf("replay of %s %s differs from the daemon's answer", req.path, req.hash))
		rp.mu.Unlock()
	}
}

// solve replays one solve the way the daemon's job runs it: decode and
// hash, build the scenario, localize, encode.
func (rp *replayer) solve(ctx context.Context, parent int, req *request) error {
	var (
		sp   wsnloc.Spec
		hash string
		p    *wsnloc.Problem
		res  *wsnloc.Result
		out  []byte
	)
	err := rp.rec.timed(parent, "alg.decode_hash", func() (err error) {
		if sp, err = wsnloc.ParseSpec(req.body); err != nil {
			return err
		}
		hash, err = wsnloc.SpecHash(sp)
		return err
	})
	if err == nil {
		err = rp.rec.timed(parent, "topology.build", func() (err error) {
			p, err = sp.Scenario.Build()
			return err
		})
	}
	if err == nil {
		res, _, err = rp.localize(ctx, parent, sp, p, 0)
	}
	if err == nil {
		err = rp.rec.timed(parent, "serve.encode", func() (err error) {
			out, err = serve.EncodeSolveResponse(hash, sp, p, res)
			return err
		})
	}
	if err != nil {
		return fmt.Errorf("replaying %s: %w", req.hash, err)
	}
	rp.compare(req, out)
	return nil
}

// localize runs the spec's algorithm under a "core" span (on workers
// simulator workers when > 0). The run's bncl.phase events become child
// spans laid end to end from the run's start, its bncl.conv totals the
// span's conv_ms attribute (per-node convolution time summed over nodes).
// It returns the result and the summed phase time.
func (rp *replayer) localize(ctx context.Context, parent int, sp wsnloc.Spec, p *wsnloc.Problem, workers int) (*wsnloc.Result, time.Duration, error) {
	mem := wsnloc.NewMemoryTracer()
	opts := sp.AlgOpts
	opts.Tracer = mem
	if workers > 0 {
		opts.Workers = workers
	}
	id := rp.rec.open(parent, "core")
	a, err := wsnloc.NewAlgorithm(sp.Algorithm, opts)
	var res *wsnloc.Result
	if err == nil {
		res, err = wsnloc.LocalizeCtx(ctx, a, p, sp.Seed)
	}
	attrs := map[string]float64{}
	var phases time.Duration
	if err == nil {
		attrs["node_rounds"] = float64(p.Deploy.N() * res.Rounds)
		var at time.Time
		if starts := mem.ByName("bncl.run.start"); len(starts) > 0 {
			at = starts[0].Time
		}
		for _, e := range mem.ByName("bncl.phase") {
			name, _ := e.Fields["phase"].(string)
			v, _ := e.Float("dur_ms")
			d := time.Duration(v * float64(time.Millisecond))
			rp.rec.add(id, "core."+name, at, at.Add(d))
			at = at.Add(d)
			phases += d
		}
		for _, e := range mem.ByName("bncl.conv") {
			sparse, _ := e.Float("sparse_ms")
			fft, _ := e.Float("fft_ms")
			attrs["conv_ms"] += sparse + fft
		}
	}
	rp.rec.close(id, attrs)
	return res, phases, err
}

// compareRuns localizes one spec three more times, sequentially and outside
// the request spans: untraced and traced on the daemon's worker count, and
// traced on one worker. The first pair sizes the tracer's cost, the traced
// pair the simulator's two-worker speedup.
func (rp *replayer) compareRuns(ctx context.Context, req *request) error {
	sp, err := wsnloc.ParseSpec(req.body)
	if err != nil {
		return err
	}
	p, err := sp.Scenario.Build()
	if err != nil {
		return err
	}
	untraced := sp.AlgOpts
	untraced.Workers = workers
	a, err := wsnloc.NewAlgorithm(sp.Algorithm, untraced)
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := wsnloc.LocalizeCtx(ctx, a, p, sp.Seed); err != nil {
		return err
	}
	plain := time.Since(start)

	unrecorded := &replayer{rec: &recorder{}}
	start = time.Now()
	_, w2, err := unrecorded.localize(ctx, 0, sp, p, workers)
	if err != nil {
		return err
	}
	traced := time.Since(start)
	_, w1, err := unrecorded.localize(ctx, 0, sp, p, 1)
	if err != nil {
		return err
	}
	rp.overhead = float64(traced-plain) / float64(plain)
	rp.speedup = ratio(float64(w1), float64(w2))
	return nil
}

// layers turns the replay's spans into per-layer metrics.
func (rp *replayer) layers(spans []span) map[string]float64 {
	st := stages(spans)
	out := map[string]float64{
		"alg.decode_hash_us":      st["alg.decode_hash"].meanDur(time.Microsecond),
		"topology.build_ms":       st["topology.build"].meanDur(time.Millisecond),
		"core.setup_ms":           st["core"].meanSelf(time.Millisecond),
		"core.hopflood_ms":        st["core.hopflood"].meanDur(time.Millisecond),
		"core.bp_ms":              st["core.bp"].meanDur(time.Millisecond),
		"exec.wait_ms":            st["exec.wait"].meanDur(time.Millisecond),
		"serve.encode_ms":         st["serve.encode"].meanDur(time.Millisecond),
		"sweep.cache_load_us":     st["sweep.cache_load"].meanDur(time.Microsecond),
		"sweep.cache_store_us":    st["sweep.cache_store"].meanDur(time.Microsecond),
		"sweep.summary_ms":        st["sweep.summary"].meanDur(time.Millisecond),
		"sim.speedup_w2":          rp.speedup,
		"obs.trace_overhead_frac": rp.overhead,
	}
	if core := st["core"]; core != nil {
		out["bayes.conv_ms"] = ratio(core.attrs["conv_ms"], float64(core.n))
		phases := float64(st["core.hopflood"].dur + st["core.bp"].dur)
		out["core.ns_per_node_round"] = ratio(phases, core.attrs["node_rounds"])
	}
	// Amdahl: a two-worker speedup S leaves a serial fraction 2/S − 1.
	if rp.speedup > 0 {
		out["sim.serial_frac"] = min(1, max(0, 2/rp.speedup-1))
	}
	// Reconciliation: the share of the daemon's end-to-end time for the
	// same inputs that the in-process stages do not account for (HTTP,
	// memo, gzip, the daemon's own tracer).
	var replayed, daemon time.Duration
	for _, r := range rp.roots {
		replayed += spans[r.id-1].dur()
		daemon += r.daemon
	}
	out["trace.reconcile_gap_frac"] = ratio(float64(daemon-replayed), float64(daemon))
	return out
}

// --- per-workload replays ---------------------------------------------------

var errNothingToReplay = errors.New("the window executed no request to replay")

// replayPaper replays canonical solves through a two-worker exec.Pool from
// two submitters, the paper-solve concurrency.
func replayPaper(ctx context.Context, rp *replayer) error {
	return rp.replaySolves(ctx, rp.b.sz.replaySolves, workers)
}

// replayMix decodes and hashes a sample of the window's bodies, then
// replays a sample of its executions like replayPaper.
func replayMix(ctx context.Context, rp *replayer) error {
	b := rp.b
	for _, s := range pick(b.cfg.seed, b.window, b.sz.replayBodies) {
		err := rp.rec.timed(0, "alg.decode_hash", func() error {
			sp, err := wsnloc.ParseSpec(s.req.body)
			if err == nil {
				_, err = wsnloc.SpecHash(sp)
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	return rp.replaySolves(ctx, b.sz.replaySolves, workers)
}

// replayScale replays one large solve, alone as in the window.
func replayScale(ctx context.Context, rp *replayer) error {
	return rp.replaySolves(ctx, 1, 1)
}

// replaySolves replays n seeded picks of the window's executions as
// exec.Pool jobs from `submitters` goroutines, then runs compareRuns on the
// first of them.
func (rp *replayer) replaySolves(ctx context.Context, n, submitters int) error {
	picked := pick(rp.b.cfg.seed, rp.b.executions(), n)
	if len(picked) == 0 {
		return errNothingToReplay
	}
	if err := rp.pooled(ctx, picked, submitters, rp.solve); err != nil {
		return err
	}
	return rp.compareRuns(ctx, picked[0].req)
}

// replaySweepCells replays consecutive sweep requests from one submitter
// against a cell cache primed by the request before the first, so each
// finds half its cells cached as in the window. It then times the summary
// merge and the cell cache's load and store on the last result.
func replaySweepCells(ctx context.Context, rp *replayer) error {
	b := rp.b
	window := b.executions()
	if len(window) == 0 {
		return errNothingToReplay
	}
	n := min(b.sz.replaySweeps, len(window))
	first := rand.New(rand.NewPCG(b.cfg.seed, streamPick)).IntN(len(window) - n + 1)
	// Window request k is sweepRequest(sweepFill+k); prime with its
	// predecessor.
	if err := rp.runSweep(ctx, -1, sweepRequest(b.cfg.seed, sweepFill+first-1)); err != nil {
		return err
	}
	if err := rp.pooled(ctx, window[first:first+n], 1, rp.runSweep); err != nil {
		return err
	}

	res := rp.lastSweep
	rp.rec.timed(0, "sweep.summary", func() error { res.Summary(); return nil })
	cache, err := sweep.OpenCache(rp.sweepDir)
	if err != nil {
		return err
	}
	copyTo, err := sweep.OpenCache(rp.sweepDir + "-copy")
	if err != nil {
		return err
	}
	for _, c := range res.Cells {
		var e *sweep.Entry
		err := rp.rec.timed(0, "sweep.cache_load", func() error {
			var ok bool
			if e, ok = cache.Load(c.Key); !ok {
				return fmt.Errorf("cell %s missing from the replay cache", c.Key)
			}
			return nil
		})
		if err == nil {
			err = rp.rec.timed(0, "sweep.cache_store", func() error { return copyTo.Store(e) })
		}
		if err != nil {
			return err
		}
	}

	// The sweep engine has no BNCL to time; its tracer cost is the whole
	// sweep run with and without a tracer attached.
	sw, err := wsnloc.ParseSweepSpec(window[first].req.body)
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := wsnloc.RunSweepCtx(ctx, sw, wsnloc.SweepOptions{Workers: workers}); err != nil {
		return err
	}
	plain := time.Since(start)
	start = time.Now()
	if _, err := wsnloc.RunSweepCtx(ctx, sw, wsnloc.SweepOptions{Workers: workers, Tracer: wsnloc.NewMemoryTracer()}); err != nil {
		return err
	}
	rp.overhead = float64(time.Since(start)-plain) / float64(plain)
	return nil
}

// runSweep replays one sweep request the way the daemon's job runs it:
// decode and hash, run the engine on the shared pool against the cell
// cache, encode. A negative parent runs it unrecorded (cache priming).
func (rp *replayer) runSweep(ctx context.Context, parent int, req *request) error {
	rec := rp.rec
	if parent < 0 {
		rec, parent = &recorder{}, 0
	}
	var (
		sw   wsnloc.SweepSpec
		hash string
		res  *wsnloc.SweepResult
		out  []byte
	)
	err := rec.timed(parent, "alg.decode_hash", func() (err error) {
		if sw, err = wsnloc.ParseSweepSpec(req.body); err == nil {
			hash = sweepHash(sw)
		}
		return err
	})
	if err == nil {
		err = rec.timed(parent, "sweep.run", func() (err error) {
			res, err = wsnloc.RunSweepCtx(ctx, sw, wsnloc.SweepOptions{
				OutDir: rp.sweepDir, Resume: true, Workers: rp.pool.Workers(), Pool: rp.pool,
			})
			return err
		})
	}
	if err == nil {
		err = rec.timed(parent, "serve.encode", func() (err error) {
			out, err = serve.EncodeSweepResponse(hash, res)
			return err
		})
	}
	if err != nil {
		return fmt.Errorf("replaying sweep %s: %w", req.hash, err)
	}
	if rec == rp.rec {
		rp.compare(req, out)
	}
	rp.mu.Lock()
	rp.lastSweep = res
	rp.mu.Unlock()
	return nil
}
