package core

import (
	"math"
	"sort"
	"time"

	"wsnloc/internal/bayes"
	"wsnloc/internal/mathx"
	"wsnloc/internal/sim"
)

// gridNode is the per-sensor program of grid-mode BNCL. Unknown nodes hold a
// discrete belief over the deployment grid; anchors hold a delta. The node
// participates in two phases switched by round number:
//
//	[0, HopRounds)            anchor hop flood (builds the hop table)
//	[HopRounds, +BPRounds)    loopy belief propagation
type gridNode struct {
	e      *env
	id     int
	anchor bool
	pos    mathx.Vec2 // anchors only

	// Hop-flood state.
	hopTable map[int]anchorHop
	improved []hopEntry

	// BP state. The prior is trimmed to the bounding box of its nonzero
	// cells once, at init; every later belief of the node is a product of
	// it and stays in that window (see bayes.Belief).
	prior  *bayes.Belief
	belief *bayes.Belief
	// support is the SupportEps support of supportOf, scanned once per new
	// belief and shipped with every broadcast of it. Each scan allocates a
	// fresh slice: receivers read it until their next recompute, so it is
	// never recycled.
	support   []int
	supportOf *bayes.Belief
	// nbr holds one link record per neighbor heard from; see nbrLink. This
	// is the memory-lean layout: the steady-state footprint per neighbor is
	// one compact floored message (support-sized) plus two scalars, not a
	// dense grid.
	nbr map[int]*nbrLink
	// twoHop maps two-hop node id → latest digest, for negative evidence.
	twoHop map[int]digest
	// direct marks the node's one-hop neighborhood (including itself).
	direct map[int]bool

	// Scratch buffers reused across BP rounds so the steady-state hot path
	// (recompute + broadcast) does near-zero grid-sized allocations. They
	// never leave the node, so reuse is safe under the parallel engine.
	// msgScratch is the single convolution output shared by every neighbor:
	// each message is computed over its own extent, then compacted into the
	// link's FlooredMsg on the node's window before the next convolution
	// reuses the buffer.
	conv       bayes.ConvScratch
	keyScratch []int
	msgScratch *bayes.Belief

	stable int
	// censored counts consecutive rounds with belief change below
	// cfg.Censor; at censorK the node suppresses its broadcast.
	censored int
	// recomputed and fresh drive the quiescent fast path: once the node has
	// recomputed at least once, a round in which no belief message (or
	// digest) arrived cannot change the posterior — recompute is a pure
	// function of the prior, the cached messages, and the digests — so the
	// round is skipped with an exact zero change.
	recomputed bool
	fresh      bool
	doneFlag   bool
	heardFrom  bool // received at least one anchor hop entry or anchor belief
}

// nbrLink is a gridNode's per-neighbor BP state.
type nbrLink struct {
	// pending is the latest received belief not yet convolved; it is
	// released (nil) the moment it is folded into msg, so the sender's
	// dense grid is only retained between its arrival and the next
	// recompute. pendingSupport is the support the sender shipped with it.
	pending        *bayes.Belief
	pendingSupport []int
	// mean/spread echo the sender-computed summary shipped in the belief
	// message — bit-identical to recomputing them from the belief, since
	// the sender ran the same floats — and serve the two-hop digests.
	mean   mathx.Vec2
	spread float64
	// msg is the cached convolved message in compact floored form, on the
	// receiving node's window.
	msg bayes.FlooredMsg
	// last retains the latest received belief — only when Config.Refine is
	// set, whose post-run refinement re-projects neighbor beliefs through
	// the exact likelihood. Scale runs leave it nil so dense neighbor grids
	// are never retained past their convolution.
	last *bayes.Belief
	// noMeas records a failed measurement lookup: the graph is fixed for
	// the run, so the link can never produce a message.
	noMeas bool
	// sentMean/sentSpread record the digest last broadcast for this link.
	// With the censor knob on, an unchanged entry is censored out of later
	// broadcasts: every receiver already holds an identical copy (digest
	// ingestion is last-write-wins), so the resend carries no information.
	sentDigest bool
	sentMean   mathx.Vec2
	sentSpread float64
}

func newGridNode(e *env, id int) *gridNode {
	return &gridNode{
		e:        e,
		id:       id,
		anchor:   e.p.Deploy.Anchor[id],
		pos:      e.p.Deploy.Pos[id],
		hopTable: make(map[int]anchorHop),
		nbr:      make(map[int]*nbrLink),
		twoHop:   make(map[int]digest),
	}
}

// Init implements sim.Node: anchors seed the hop flood.
func (n *gridNode) Init(ctx *sim.Context) {
	n.direct = map[int]bool{n.id: true}
	for _, j := range ctx.Neighbors() {
		n.direct[j] = true
	}
	if n.anchor {
		n.hopTable[n.id] = anchorHop{pos: n.pos, hops: 0}
		ctx.Broadcast(kindHops, hopEntryBytes, []hopEntry{{anchor: n.id, pos: n.pos, hops: 0}})
	}
}

// Round implements sim.Node.
func (n *gridNode) Round(ctx *sim.Context, round int, inbox []sim.Message) {
	if round < n.e.cfg.HopRounds {
		n.floodRound(ctx, inbox)
		return
	}
	n.bpRound(ctx, round-n.e.cfg.HopRounds, inbox)
}

// Done implements sim.Node.
func (n *gridNode) Done() bool { return n.doneFlag }

// floodRound ingests hop advertisements and rebroadcasts improvements.
func (n *gridNode) floodRound(ctx *sim.Context, inbox []sim.Message) {
	n.improved = n.improved[:0]
	for _, m := range inbox {
		entries, ok := m.Payload.([]hopEntry)
		if m.Kind != kindHops || !ok {
			continue
		}
		for _, e := range entries {
			cand := e.hops + 1
			cur, seen := n.hopTable[e.anchor]
			if !seen || cand < cur.hops {
				n.hopTable[e.anchor] = anchorHop{pos: e.pos, hops: cand}
				n.improved = append(n.improved, hopEntry{anchor: e.anchor, pos: e.pos, hops: cand})
				n.heardFrom = true
			}
		}
	}
	if len(n.improved) > 0 {
		out := make([]hopEntry, len(n.improved))
		copy(out, n.improved)
		ctx.Broadcast(kindHops, hopEntryBytes*len(out), out)
	}
}

// bpRound runs one belief-propagation iteration.
func (n *gridNode) bpRound(ctx *sim.Context, t int, inbox []sim.Message) {
	if t == 0 {
		// Everyone — anchors included — announces its initial belief.
		n.initBelief()
		n.broadcastBelief(ctx)
		return
	}

	n.ingest(inbox)

	if n.anchor {
		// Re-send once at t == 1, then go quiet.
		if t == 1 {
			n.broadcastBelief(ctx)
		}
		n.doneFlag = true
		return
	}

	var change float64
	if n.recomputed && !n.fresh {
		// Quiescent fast path: nothing new arrived, so recompute would
		// rebuild the current posterior bit for bit and the L1 change is
		// exactly zero. Everything downstream (residual record, stable
		// counting, the broadcast payload) is identical to running it.
		change = 0
	} else {
		next := n.recompute()
		n.pruneBelief(next)
		change = next.L1Diff(n.belief)
		n.belief = next
		n.recomputed = true
	}
	n.fresh = false
	n.e.recordResidual(n.id, t, change)

	if change < n.e.cfg.Epsilon {
		n.stable++
	} else {
		n.stable = 0
	}
	if n.stable >= 2 {
		if !n.doneFlag {
			n.e.recordDone(n.id, t)
		}
		n.doneFlag = true
		return
	}
	if n.censorRound(change) {
		ctx.Censored()
		return
	}
	n.broadcastBelief(ctx)
}

// censorRound applies the censoring knob to this round's belief change and
// reports whether the broadcast should be suppressed. Purely a function of
// the node's own residual history, so it is deterministic across worker
// counts.
func (n *gridNode) censorRound(change float64) bool {
	c := n.e.cfg.Censor
	if c <= 0 {
		return false
	}
	if change < c {
		n.censored++
	} else {
		n.censored = 0
	}
	return n.censored >= censorK
}

// pruneBelief applies the support-pruning knob to a belief, accumulating the
// removed mass and cells in the env's per-node slot. It runs on the prior
// once at init and on each freshly recomputed posterior — never on a belief
// that is itself an input to the next recompute, so pruning cannot compound
// across rounds.
func (n *gridNode) pruneBelief(b *bayes.Belief) {
	rel := n.e.cfg.Prune
	if rel <= 0 {
		return
	}
	mass, cells := b.Prune(rel)
	if cells > 0 {
		ps := &n.e.pruneStats[n.id]
		ps.mass += mass
		ps.cells += cells
	}
}

// initBelief builds the prior and the initial belief.
func (n *gridNode) initBelief() {
	if n.anchor {
		n.belief = bayes.NewDelta(n.e.grid, n.pos)
		n.prior = n.belief
		return
	}
	hops := sortedHopTable(n.hopTable)
	rUp, rLo := n.e.hopBounds()
	n.prior = n.e.cfg.PK.buildPrior(n.e.grid, n.e.p.Deploy.Region, hops, rUp, rLo, n.e.anchorDistOf)
	// With the knob on, the prior is pruned ONCE here — every recompute
	// starts from this same support, so pruning still never compounds
	// across rounds. Zeroed prior cells stay zero through the whole run
	// (messages and factors are multiplicative), so trimming the prior to
	// its nonzero bounding box makes every later belief, product and scan
	// of the node window-sized.
	n.pruneBelief(n.prior)
	n.prior.Trim()
	n.belief = n.prior.Clone()
	n.pruneBelief(n.belief)
}

// sortedHopTable flattens a hop table nearest-anchor first with an anchor-id
// tie-break — a total order, so the prior's floating-point product order
// (and thus the whole run) is deterministic.
func sortedHopTable(table map[int]anchorHop) []anchorHop {
	type entry struct {
		id int
		ah anchorHop
	}
	es := make([]entry, 0, len(table))
	for id, ah := range table {
		es = append(es, entry{id, ah})
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].ah.hops != es[j].ah.hops {
			return es[i].ah.hops < es[j].ah.hops
		}
		return es[i].id < es[j].id
	})
	out := make([]anchorHop, len(es))
	for i, e := range es {
		out[i] = e.ah
		out[i].id = e.id
	}
	return out
}

// ingest caches incoming neighbor beliefs and two-hop digests. Any accepted
// belief marks the round fresh, which is what arms the next recompute.
func (n *gridNode) ingest(inbox []sim.Message) {
	for _, m := range inbox {
		bm, ok := m.Payload.(*beliefMsg)
		if m.Kind != kindBelief || !ok || bm.grid == nil {
			continue
		}
		l := n.nbr[m.From]
		if l == nil {
			l = &nbrLink{}
			n.nbr[m.From] = l
		}
		l.pending, l.pendingSupport = bm.grid, bm.support
		l.mean, l.spread = bm.mean, bm.spread
		if n.e.cfg.Refine {
			l.last = bm.grid
		}
		n.fresh = true
		if n.e.p.Deploy.Anchor[m.From] {
			n.heardFrom = true
		}
		if n.e.cfg.PK.UseNegativeEvidence {
			for _, d := range bm.digests {
				if !n.direct[d.id] {
					n.twoHop[d.id] = d
				}
			}
		}
	}
}

// recompute rebuilds the belief from the prior, the cached (convolved)
// neighbor messages, and the negative-evidence factors. The returned belief
// is freshly allocated — it is broadcast by pointer and retained by
// neighbors, so it cannot come from a recycled buffer; everything else
// (messages, support scans, key sorts) reuses node-local scratch.
func (n *gridNode) recompute() *bayes.Belief {
	b := n.prior.Clone()
	// Iterate neighbors in sorted order: map order would make the
	// floating-point product (and hence the whole run) nondeterministic.
	n.keyScratch = sortedKeys(n.keyScratch, n.nbr)
	for _, j := range n.keyScratch {
		l := n.nbr[j]
		if nb := l.pending; nb != nil {
			// Fold the pending belief into the compact message cache and
			// release the dense grid.
			support := l.pendingSupport
			l.pending, l.pendingSupport = nil, nil
			if !l.noMeas {
				meas, ok := n.measTo(j)
				if !ok {
					// No measurement for this neighbor means no message,
					// ever — the graph is fixed for the run. Remember the
					// miss so the lookup isn't retried each arrival.
					l.noMeas = true
				} else {
					if n.msgScratch == nil {
						// Any window will do: each convolution re-windows
						// the scratch to its message's extent.
						n.msgScratch = bayes.NewZero(n.e.grid, b.Window())
					}
					n.convolve(n.e.kernels.forMeasurement(meas), n.msgScratch, nb, support)
					// CompactWithin bakes in the same floor·max clamp
					// MulFlooredMax applied, with the max taken over the
					// whole message, so the product below is bit-identical
					// to multiplying the dense message.
					l.msg.CompactWithin(n.msgScratch, n.e.cfg.MessageFloor, b.Window())
				}
			}
		}
		if !l.msg.Valid() {
			continue
		}
		l.msg.MulInto(b)
		if !b.Normalize() {
			b.CopyFrom(n.prior)
		}
	}
	if n.e.cfg.PK.UseNegativeEvidence {
		n.keyScratch = sortedKeys(n.keyScratch, n.twoHop)
		for _, k := range n.keyScratch {
			if !n.e.mulNegEvidence(b, n.twoHop[k]) {
				continue
			}
			if !b.Normalize() {
				b.CopyFrom(n.prior)
			}
		}
	}
	return b
}

// sortedKeys fills dst with m's keys in ascending order, reusing dst's
// backing array (pass nil when no scratch is available). Sorted iteration
// keeps every floating-point product order — and hence the whole run —
// deterministic.
func sortedKeys[V any](dst []int, m map[int]V) []int {
	dst = dst[:0]
	for k := range m {
		dst = append(dst, k)
	}
	sort.Ints(dst)
	return dst
}

// convolve computes the BP message k ⊗ nb into msg on the configured
// convolution path, from the support nb's sender shipped, and records which
// path served it (plus wall time when a tracer is consuming timings) in the
// node's convStats slot — written only by this node's goroutine, per the env
// partitioning invariant.
func (n *gridNode) convolve(k *bayes.RadialKernel, msg, nb *bayes.Belief, support []int) {
	var t0 time.Time
	if n.e.timeConv {
		t0 = time.Now()
	}
	used := k.ConvolveWith(msg, nb, support, n.e.cfg.Conv, &n.conv)
	cs := &n.e.convStats[n.id]
	if used == bayes.ConvFFT {
		cs.fft++
		if n.e.timeConv {
			cs.fftNS += time.Since(t0).Nanoseconds()
		}
	} else {
		cs.sparse++
		if n.e.timeConv {
			cs.sparseNS += time.Since(t0).Nanoseconds()
		}
	}
}

// measTo returns the measured range to neighbor j.
func (n *gridNode) measTo(j int) (float64, bool) {
	return n.e.p.Graph.MeasBetween(n.id, j)
}

// broadcastBelief ships the current belief summary plus neighbor digests.
// The belief's support is scanned on its first broadcast only; quiescent
// re-broadcasts of an unchanged belief reuse it.
func (n *gridNode) broadcastBelief(ctx *sim.Context) {
	if n.supportOf != n.belief {
		n.support, n.supportOf = n.belief.Support(bayes.SupportEps), n.belief
	}
	msg := &beliefMsg{
		grid:    n.belief,
		support: n.support,
		mean:    n.belief.Mean(),
		spread:  n.belief.Spread(),
	}
	if n.e.cfg.PK.UseNegativeEvidence {
		// Entry-level censoring: with the knob on, a digest identical to the
		// one last broadcast for that link is dropped from the payload —
		// receivers already hold it. Node-local state only, so the run stays
		// deterministic across worker counts.
		censorDigests := n.e.cfg.Censor > 0
		n.keyScratch = sortedKeys(n.keyScratch, n.nbr)
		for _, j := range n.keyScratch {
			l := n.nbr[j]
			if censorDigests {
				if l.sentDigest && l.sentMean == l.mean && l.sentSpread == l.spread {
					continue
				}
				l.sentDigest, l.sentMean, l.sentSpread = true, l.mean, l.spread
			}
			msg.digests = append(msg.digests, digest{id: j, mean: l.mean, spread: l.spread})
		}
	}
	ctx.Broadcast(kindBelief, msg.bytesOf(), msg)
}

// Estimate implements estimateReader.
func (n *gridNode) Estimate() (mathx.Vec2, float64, bool) {
	if n.belief == nil {
		// BP never started (e.g. zero BP rounds): report the region center.
		c := n.e.grid.Bounds().Center()
		return c, math.Inf(1), false
	}
	if n.e.cfg.Refine && !n.anchor {
		window := 2*n.belief.Spread() + 2*n.e.grid.CellDiag()
		if est, spread, ok := n.refineEstimate(window, 24); ok {
			return est, spread, n.heardFrom
		}
	}
	if n.e.cfg.Estimator == EstimatorMAP {
		return n.belief.MAP(), n.belief.Spread(), n.heardFrom
	}
	return n.belief.Mean(), n.belief.Spread(), n.heardFrom
}
