package core

import (
	"context"
	"time"

	"wsnloc/internal/obs"
	"wsnloc/internal/rng"
	"wsnloc/internal/sim"
)

// BNCL observability: node programs feed per-round convergence diagnostics
// into per-node buffers of the shared env — each buffer is written only by
// the goroutine executing that node's program, so the worker pool needs no
// locking — the sim.Config.OnRound hook attributes traffic and wall time to
// rounds, and Localize reduces both into Result.Convergence plus structured
// obs events when a tracer is attached.

// roundTrace aggregates one BP iteration's diagnostics across all nodes.
type roundTrace struct {
	resSum float64 // summed convergence residual over unknowns
	resMax float64
	resN   int
	essSum float64 // summed particle ESS over unknowns (particle mode)
	essN   int
	done   int // nodes that turned done this round
}

// nodeRound is one node's diagnostics for one BP iteration. The per-node
// slices are reduced in node-id order after the run, which is exactly the
// accumulation order of the sequential engine — so the aggregate
// floating-point sums are bit-identical for any worker count.
type nodeRound struct {
	res    float64
	ess    float64
	hasRes bool
	hasESS bool
	done   bool
}

// convStat counts one node's BP message convolutions per dispatch path.
// The nanosecond accumulators are filled only when env.timeConv is set, so
// the untraced hot path never touches the clock.
type convStat struct {
	sparse, fft     int
	sparseNS, fftNS int64
}

// pruneStat accumulates one node's support pruning: total mass removed and
// cells zeroed across the run.
type pruneStat struct {
	mass  float64
	cells int
}

// recordResidual adds node's convergence residual for BP iteration t.
func (e *env) recordResidual(node, t int, r float64) {
	nr := e.nodeRound(node, t)
	nr.res = r
	nr.hasRes = true
}

// recordESS adds node's effective sample size for BP iteration t.
func (e *env) recordESS(node, t int, v float64) {
	nr := e.nodeRound(node, t)
	nr.ess = v
	nr.hasESS = true
}

// recordDone notes node finishing at BP iteration t.
func (e *env) recordDone(node, t int) { e.nodeRound(node, t).done = true }

func (e *env) nodeRound(node, t int) *nodeRound {
	s := e.nodeTrace[node]
	for len(s) <= t {
		s = append(s, nodeRound{})
	}
	e.nodeTrace[node] = s
	return &e.nodeTrace[node][t]
}

// aggregateRound reduces BP iteration t's per-node diagnostics into one
// total; any reports whether any node recorded that far. Nodes contribute in
// id order — the accumulation order of the sequential engine — so the
// floating-point sums are bit-identical for any worker count, and identical
// whether computed live (between rounds) or after the run.
func (e *env) aggregateRound(t int) (rt roundTrace, any bool) {
	for node := range e.nodeTrace {
		if t >= len(e.nodeTrace[node]) {
			continue
		}
		any = true
		nr := e.nodeTrace[node][t]
		if nr.hasRes {
			rt.resSum += nr.res
			if nr.res > rt.resMax {
				rt.resMax = nr.res
			}
			rt.resN++
		}
		if nr.hasESS {
			rt.essSum += nr.ess
			rt.essN++
		}
		if nr.done {
			rt.done++
		}
	}
	return rt, any
}

// aggregate reduces the per-node diagnostics into per-round totals.
func (e *env) aggregate() []roundTrace {
	var out []roundTrace
	for t := 0; ; t++ {
		rt, any := e.aggregateRound(t)
		if !any {
			return out
		}
		out = append(out, rt)
	}
}

// convergence flattens the aggregated residuals into the Result.Convergence
// series: mean residual per BP iteration, in iteration order.
func (e *env) convergence() []float64 {
	var out []float64
	for _, rt := range e.trace {
		if rt.resN == 0 {
			continue
		}
		out = append(out, rt.resSum/float64(rt.resN))
	}
	return out
}

// roundSnap is one OnRound observation: cumulative traffic and the wall
// clock after the round executed.
type roundSnap struct {
	round int
	at    time.Time
	msgs  int
	bytes int
}

// runTrace drives the tracer side of one Localize call: it owns the run's
// span (bncl.run.start / bncl.run.done with span and parent IDs), and every
// event it emits goes through the span's tracer so rounds, phases, and
// convolution totals are parented to the run.
type runTrace struct {
	tr       obs.Tracer // the run span's tracer — children inherit its ID
	span     *obs.Span
	env      *env
	particle bool
	start    time.Time
	snaps    []roundSnap
	doneCum  int
}

// newRunTrace returns nil when the tracer records nothing, so call sites can
// gate on rt != nil. Otherwise it opens the run span immediately, so stream
// consumers see the solve the moment it starts, not when it finishes.
func newRunTrace(tr obs.Tracer, b *BNCL, p *Problem, e *env) *runTrace {
	if !obs.Enabled(tr) {
		return nil
	}
	sp := obs.StartSpan(tr, "bncl.run", map[string]interface{}{
		"alg":     b.Name(),
		"nodes":   p.Deploy.N(),
		"workers": sim.ResolveWorkers(b.Cfg.Workers, p.Deploy.N()),
	})
	return &runTrace{
		tr:       sp.Tracer(),
		span:     sp,
		env:      e,
		particle: e.cfg.Mode == ParticleMode,
		start:    time.Now(),
	}
}

// onRound is installed as the sim.Config.OnRound hook. It runs on the
// coordinating goroutine after the round's worker pool has joined, so the
// per-node trace buffers are quiescent — which is what makes emitting the
// round's aggregate live (rather than after the run) race-free. Live
// emission is the point of the ops plane: a long solve shows its per-round
// residuals on /events while it runs.
func (rt *runTrace) onRound(round int, stats sim.Stats) {
	rt.snaps = append(rt.snaps, roundSnap{round: round, at: time.Now(), msgs: stats.MessagesSent, bytes: stats.BytesSent})
	rt.emitRound(len(rt.snaps) - 1)
}

// emitRound emits the bncl.round event for snapshot i, joining the node-level
// aggregates of its BP iteration with the sim's traffic/time deltas.
func (rt *runTrace) emitRound(i int) {
	s := rt.snaps[i]
	t := s.round - rt.env.cfg.HopRounds // BP iteration; negative during hop flood
	if t < 0 {
		return
	}
	msgs, bytes, dur := rt.snapDelta(i)
	fields := map[string]interface{}{
		"round":  t,
		"msgs":   msgs,
		"bytes":  bytes,
		"dur_ms": durMS(dur),
	}
	if agg, any := rt.env.aggregateRound(t); any {
		rt.doneCum += agg.done
		if agg.resN > 0 {
			fields["residual_mean"] = agg.resSum / float64(agg.resN)
			fields["residual_max"] = agg.resMax
			fields["nodes"] = agg.resN
		}
		if rt.particle && agg.essN > 0 {
			fields["ess_mean"] = agg.essSum / float64(agg.essN)
		}
		fields["done"] = rt.doneCum
	}
	rt.tr.Emit(obs.Event{Time: s.at, Name: "bncl.round", Fields: fields})
}

// snapDelta returns the traffic/time deltas of snapshot i against its
// predecessor (or the run start).
func (rt *runTrace) snapDelta(i int) (msgs, bytes int, dur time.Duration) {
	s := rt.snaps[i]
	if i == 0 {
		return s.msgs, s.bytes, s.at.Sub(rt.start)
	}
	prev := rt.snaps[i-1]
	return s.msgs - prev.msgs, s.bytes - prev.bytes, s.at.Sub(prev.at)
}

// emitConv reports the run's convolution dispatch totals: the configured
// path, how many messages each path served, and (when timing was enabled)
// the wall time each spent. Per-node stats are summed in node-id order.
func (rt *runTrace) emitConv(e *env) {
	var total convStat
	for i := range e.convStats {
		cs := &e.convStats[i]
		total.sparse += cs.sparse
		total.fft += cs.fft
		total.sparseNS += cs.sparseNS
		total.fftNS += cs.fftNS
	}
	if total.sparse == 0 && total.fft == 0 {
		return
	}
	obs.Emit(rt.tr, "bncl.conv", map[string]interface{}{
		"path":      e.cfg.Conv.String(),
		"sparse":    total.sparse,
		"fft":       total.fft,
		"sparse_ms": float64(total.sparseNS) / 1e6,
		"fft_ms":    float64(total.fftNS) / 1e6,
	})
}

// emitPrune reports the run's support-pruning totals: the knob, the mass
// removed, and the cells zeroed, summed in node-id order. Silent when the
// knob is off or nothing was pruned, so knobs-off traces are unchanged.
func (rt *runTrace) emitPrune(e *env) {
	if e.cfg.Prune <= 0 {
		return
	}
	var total pruneStat
	for i := range e.pruneStats {
		total.mass += e.pruneStats[i].mass
		total.cells += e.pruneStats[i].cells
	}
	if total.cells == 0 {
		return
	}
	obs.Emit(rt.tr, "bncl.prune", map[string]interface{}{
		"rel":   e.cfg.Prune,
		"mass":  total.mass,
		"cells": total.cells,
	})
}

// emitPhase sums the snapshots in rounds [lo, hi) into one bncl.phase event.
func (rt *runTrace) emitPhase(phase string, lo, hi int) {
	var msgs, bytes, rounds int
	var dur time.Duration
	for i := range rt.snaps {
		if r := rt.snaps[i].round; r < lo || r >= hi {
			continue
		}
		m, b, d := rt.snapDelta(i)
		msgs += m
		bytes += b
		dur += d
		rounds++
	}
	if rounds == 0 {
		return
	}
	obs.Emit(rt.tr, "bncl.phase", map[string]interface{}{
		"phase": phase, "rounds": rounds, "msgs": msgs, "bytes": bytes, "dur_ms": durMS(dur),
	})
}

// emitRefine reports the zero-traffic local refinement pass.
func (rt *runTrace) emitRefine(dur time.Duration) {
	obs.Emit(rt.tr, "bncl.phase", map[string]interface{}{
		"phase": "refine", "rounds": 0, "msgs": 0, "bytes": 0, "dur_ms": durMS(dur),
	})
}

// emitCanceled ends the run span as "bncl.run.canceled": the rounds that
// completed before the cancel and the context's error. Rounds emitted live
// before the cancel are already on the stream.
func (rt *runTrace) emitCanceled(rounds int, err error) {
	rt.span.EndAs("canceled", map[string]interface{}{
		"rounds": rounds,
		"err":    err.Error(),
	})
}

// emitFailed ends the run span as "bncl.run.error" for non-cancellation
// failures (e.g. the traffic budget), so span pairs stay balanced on the
// stream.
func (rt *runTrace) emitFailed(rounds int, err error) {
	rt.span.EndAs("error", map[string]interface{}{
		"rounds": rounds,
		"err":    err.Error(),
	})
}

// emitRun ends the run span as "bncl.run.done" with the whole solve's totals.
// The censored counter appears only when censoring suppressed something, so
// knobs-off events keep their historical shape byte for byte.
func (rt *runTrace) emitRun(res *Result) {
	fields := map[string]interface{}{
		"rounds": res.Rounds,
		"msgs":   res.Stats.MessagesSent,
		"bytes":  res.Stats.BytesSent,
	}
	if res.Stats.MessagesCensored > 0 {
		fields["censored"] = res.Stats.MessagesCensored
	}
	rt.span.EndWith(fields)
}

func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// TracerSetter is implemented by algorithms that accept a tracer; Traced and
// the experiment harness use it to inject observability without widening the
// Algorithm interface.
type TracerSetter interface {
	SetTracer(tr obs.Tracer)
}

// SetTracer implements TracerSetter.
func (b *BNCL) SetTracer(tr obs.Tracer) { b.Cfg.Tracer = tr }

// Traced wraps an algorithm so every Localize call emits an "algorithm"
// timing event; if the algorithm itself supports tracer injection (BNCL, the
// DV family), the tracer is also pushed down for phase/round events. A nil
// or no-op tracer returns the algorithm unchanged.
func Traced(alg Algorithm, tr obs.Tracer) Algorithm {
	if !obs.Enabled(tr) {
		return alg
	}
	if ts, ok := alg.(TracerSetter); ok {
		ts.SetTracer(tr)
	}
	return &tracedAlg{alg: alg, tr: tr}
}

type tracedAlg struct {
	alg Algorithm
	tr  obs.Tracer
}

// SetTracer implements TracerSetter: the "algorithm" event and the wrapped
// algorithm's own events move to tr together, so a per-trial tracer
// parents both to the trial span.
func (t *tracedAlg) SetTracer(tr obs.Tracer) {
	t.tr = tr
	if ts, ok := t.alg.(TracerSetter); ok {
		ts.SetTracer(tr)
	}
}

// Name implements Algorithm.
func (t *tracedAlg) Name() string { return t.alg.Name() }

// Localize implements Algorithm.
func (t *tracedAlg) Localize(p *Problem, stream *rng.Stream) (*Result, error) {
	return t.LocalizeCtx(context.Background(), p, stream)
}

// LocalizeCtx implements ContextAlgorithm, delegating cancellation to the
// wrapped algorithm via LocalizeContext.
func (t *tracedAlg) LocalizeCtx(ctx context.Context, p *Problem, stream *rng.Stream) (*Result, error) {
	start := time.Now()
	res, err := LocalizeContext(ctx, t.alg, p, stream)
	fields := map[string]interface{}{
		"alg":    t.alg.Name(),
		"dur_ms": durMS(time.Since(start)),
		"ok":     err == nil,
	}
	if res != nil {
		fields["rounds"] = res.Rounds
		fields["msgs"] = res.Stats.MessagesSent
		fields["bytes"] = res.Stats.BytesSent
	}
	obs.Emit(t.tr, "algorithm", fields)
	return res, err
}
