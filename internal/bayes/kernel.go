package bayes

import (
	"math"

	"wsnloc/internal/geom"
)

// RadialKernel is a precomputed translation-invariant message kernel:
// k(Δ) = lik(‖Δ‖) tabulated on grid-cell offsets within a truncation radius.
// It implements the core BP message computation
//
//	m(x) = Σ_y b(y) · lik(‖x − y‖)
//
// through two interchangeable paths (see ConvPath): a sparse scatter from the
// sender belief's support — O(S·K), which collapses once beliefs concentrate
// — and a padded-FFT dense convolution — O(G log G) independent of support,
// which wins while beliefs are still diffuse. The sparse path runs over
// per-row contiguous runs compiled at construction so the inner loop is a
// slice-bounded multiply-add with clipping hoisted out of it.
type RadialKernel struct {
	grid *geom.Grid
	offs []kernelOffset
	// runs is the row-run compilation of offs: maximal sequences of
	// consecutive di at fixed dj, in the exact (dj, di) order of offs, so the
	// run-based scatter is bit-for-bit identical to the offset-based one.
	runs []kernelRun
	// Offset bounds; sources inside [−minDi, NX−1−maxDi]×[−minDj, NY−1−maxDj]
	// take the no-clip fast path.
	minDi, maxDi, minDj, maxDj int

	// Dense-path state: the padded kernel spectrum, built once on first use
	// (see spectrum in conv.go).
	spec spectrumCache
}

type kernelOffset struct {
	di, dj int
	w      float64
}

// kernelRun is one contiguous horizontal slice of the kernel: weights for
// offsets (di0, dj) … (di0+len(w)−1, dj).
type kernelRun struct {
	di0, dj int
	w       []float64
}

// NewRadialKernel tabulates lik on all cell offsets with ‖Δ‖ ≤ maxDist,
// discarding entries below relTrim of the kernel maximum (pass 0 for the
// 1e-4 default). The kernel always contains at least the zero offset so that
// degenerate likelihoods cannot produce empty messages.
func NewRadialKernel(g *geom.Grid, lik func(d float64) float64, maxDist float64, relTrim float64) *RadialKernel {
	if relTrim <= 0 {
		relTrim = 1e-4
	}
	ri := int(maxDist/g.CellW) + 1
	rj := int(maxDist/g.CellH) + 1

	type raw struct {
		di, dj int
		w      float64
	}
	var entries []raw
	maxW := 0.0
	for dj := -rj; dj <= rj; dj++ {
		for di := -ri; di <= ri; di++ {
			dx := float64(di) * g.CellW
			dy := float64(dj) * g.CellH
			d := dx*dx + dy*dy
			if d > maxDist*maxDist {
				continue
			}
			w := lik(math.Sqrt(d))
			if w < 0 || w != w { // negative or NaN
				w = 0
			}
			entries = append(entries, raw{di, dj, w})
			if w > maxW {
				maxW = w
			}
		}
	}
	k := &RadialKernel{grid: g}
	if maxW <= 0 {
		// Degenerate likelihood: identity kernel keeps messages harmless.
		k.offs = []kernelOffset{{0, 0, 1}}
		k.compile()
		return k
	}
	thr := relTrim * maxW
	for _, e := range entries {
		if e.w >= thr {
			k.offs = append(k.offs, kernelOffset{e.di, e.dj, e.w})
		}
	}
	if len(k.offs) == 0 {
		k.offs = []kernelOffset{{0, 0, 1}}
	}
	k.compile()
	return k
}

// compile groups the tabulated offsets into per-row contiguous runs and
// records the offset bounds. offs is laid out dj-major with ascending di, so
// a single pass recovers every maximal run in scatter order.
func (k *RadialKernel) compile() {
	k.runs = k.runs[:0]
	k.minDi, k.maxDi, k.minDj, k.maxDj = 0, 0, 0, 0
	for i := 0; i < len(k.offs); {
		o := k.offs[i]
		j := i + 1
		for j < len(k.offs) && k.offs[j].dj == o.dj && k.offs[j].di == k.offs[j-1].di+1 {
			j++
		}
		w := make([]float64, j-i)
		for t := i; t < j; t++ {
			w[t-i] = k.offs[t].w
		}
		k.runs = append(k.runs, kernelRun{di0: o.di, dj: o.dj, w: w})
		i = j
	}
	for i, o := range k.offs {
		if i == 0 {
			k.minDi, k.maxDi, k.minDj, k.maxDj = o.di, o.di, o.dj, o.dj
			continue
		}
		if o.di < k.minDi {
			k.minDi = o.di
		}
		if o.di > k.maxDi {
			k.maxDi = o.di
		}
		if o.dj < k.minDj {
			k.minDj = o.dj
		}
		if o.dj > k.maxDj {
			k.maxDj = o.dj
		}
	}
}

// Size returns the number of tabulated offsets (diagnostics and tests).
func (k *RadialKernel) Size() int { return len(k.offs) }

// Runs returns the number of compiled contiguous rows (diagnostics and tests).
func (k *RadialKernel) Runs() int { return len(k.runs) }

// Convolve computes the unnormalized message m = k ⊗ src on the sparse path
// (see ConvolveInto for its window). The source belief must live on the
// kernel's grid. The result is NOT normalized — messages multiply into
// beliefs that get renormalized afterwards.
func (k *RadialKernel) Convolve(src *Belief) *Belief {
	k.checkSrc(src)
	support := src.Support(SupportEps)
	out := NewZero(k.grid, k.messageWindow(src, support))
	k.scatter(out, src, support)
	return out
}

// ConvolveInto computes the unnormalized message k ⊗ src into dst on the
// sparse path. dst is re-windowed to the message's extent — the source
// support's bounding box grown by the kernel — reusing its weight buffer
// when that is large enough; the message is exactly zero outside it.
// support is an optional scratch slice for the source support scan; the
// (possibly grown) slice is returned so steady-state BP rounds convolve
// without any allocation. dst must live on the kernel's grid, must not
// alias src, and both weight buffers must be non-empty.
func (k *RadialKernel) ConvolveInto(dst, src *Belief, support []int) []int {
	support = src.AppendSupport(support[:0], SupportEps)
	k.convolveSupport(dst, src, support)
	return support
}

// convolveSupport is the sparse path over a precomputed source support.
func (k *RadialKernel) convolveSupport(dst, src *Belief, support []int) {
	k.checkPair(dst, src)
	dst.reshape(k.messageWindow(src, support))
	clear(dst.W)
	k.scatter(dst, src, support)
}

// messageWindow is the extent of the sparse message from support (ascending
// flat indices, as Support returns them): the support's bounding box grown
// by the kernel's offsets and clipped to the grid. A radial kernel's offsets
// are symmetric, so the box always survives the growth. An empty support
// sends an all-zero message, kept on the source's window.
func (k *RadialKernel) messageWindow(src *Belief, support []int) Window {
	if len(support) == 0 {
		return src.Window()
	}
	nx := k.grid.NX
	i0, i1 := nx, -1
	for _, idx := range support {
		i := idx % nx
		i0, i1 = min(i0, i), max(i1, i)
	}
	j0, j1 := support[0]/nx, support[len(support)-1]/nx
	return spanWindow(max(i0+k.minDi, 0), max(j0+k.minDj, 0),
		min(i1+k.maxDi, nx-1), min(j1+k.maxDj, k.grid.NY-1))
}

// checkSrc validates a source belief: on the kernel's grid, with weights.
func (k *RadialKernel) checkSrc(src *Belief) {
	if src.Grid != k.grid {
		panic("bayes: Convolve across different grids")
	}
	if len(src.W) == 0 {
		panic("bayes: Convolve on a belief with an empty weight buffer")
	}
}

// checkPair validates the grid/buffer invariants shared by both paths.
func (k *RadialKernel) checkPair(dst, src *Belief) {
	k.checkSrc(src)
	if dst.Grid != k.grid {
		panic("bayes: Convolve across different grids")
	}
	if len(dst.W) == 0 {
		panic("bayes: Convolve on a belief with an empty weight buffer")
	}
	if &dst.W[0] == &src.W[0] {
		panic("bayes: ConvolveInto aliasing source and destination")
	}
}

// scatter accumulates the kernel rows of every support cell into dst, whose
// window must hold the support grown by the kernel (clipped to the grid).
// Interior sources skip clipping entirely; border sources clip each run to
// the grid. The accumulation order matches the historical per-offset
// scatter exactly, so results are bit-for-bit reproducible across both
// implementations and every worker count.
func (k *RadialKernel) scatter(dst, src *Belief, support []int) {
	g := k.grid
	nx, ny := g.NX, g.NY
	sw, dw := src.Window(), dst.Window()
	for _, sIdx := range support {
		si, sj := sIdx%nx, sIdx/nx
		ws := src.W[sw.local(si, sj)]
		if si+k.minDi >= 0 && si+k.maxDi < nx && sj+k.minDj >= 0 && sj+k.maxDj < ny {
			for _, run := range k.runs {
				row := dst.W[dw.local(si+run.di0, sj+run.dj):]
				row = row[:len(run.w)]
				for i, wv := range run.w {
					row[i] += ws * wv
				}
			}
			continue
		}
		for _, run := range k.runs {
			tj := sj + run.dj
			if tj < 0 || tj >= ny {
				continue
			}
			ti0 := si + run.di0
			lo, hi := 0, len(run.w)
			if ti0 < 0 {
				lo = -ti0
			}
			if ti0+hi > nx {
				hi = nx - ti0
			}
			if lo >= hi {
				continue
			}
			row := dst.W[dw.local(ti0+lo, tj):][:hi-lo]
			wr := run.w[lo:hi]
			for i, wv := range wr {
				row[i] += ws * wv
			}
		}
	}
}
