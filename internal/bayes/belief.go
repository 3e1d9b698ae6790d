// Package bayes implements the probabilistic machinery of wsnloc: discrete
// grid beliefs, radial-likelihood message kernels, and weighted-particle
// beliefs. These are the factors and messages of the Bayesian network that
// internal/core's cooperative localization algorithm passes between nodes.
package bayes

import (
	"errors"
	"math"

	"wsnloc/internal/geom"
	"wsnloc/internal/mathx"
)

// Belief is a discrete probability distribution over the cells of a grid:
// W[idx] is the probability mass attributed to the cell center. A valid
// belief is normalized (ΣW = 1); operations that can drive the total mass to
// zero report it so callers can recover (typically by resetting to the
// prior).
type Belief struct {
	Grid *geom.Grid
	W    []float64
}

// NewUniform returns the uniform belief over g.
func NewUniform(g *geom.Grid) *Belief {
	b := &Belief{Grid: g, W: make([]float64, g.Cells())}
	u := 1 / float64(g.Cells())
	for i := range b.W {
		b.W[i] = u
	}
	return b
}

// NewFromFunc evaluates f at every cell center and normalizes. It returns an
// error if f has (numerically) zero total mass on the grid.
func NewFromFunc(g *geom.Grid, f func(mathx.Vec2) float64) (*Belief, error) {
	b := &Belief{Grid: g, W: make([]float64, g.Cells())}
	for idx := range b.W {
		v := f(g.CenterIdx(idx))
		if v < 0 || math.IsNaN(v) {
			v = 0
		}
		b.W[idx] = v
	}
	if !b.Normalize() {
		return nil, errors.New("bayes: density has zero mass on grid")
	}
	return b, nil
}

// NewDelta returns a belief with all mass in the cell containing p (clamped
// to the grid).
func NewDelta(g *geom.Grid, p mathx.Vec2) *Belief {
	b := &Belief{Grid: g, W: make([]float64, g.Cells())}
	b.W[g.IndexOf(p)] = 1
	return b
}

// Clone returns a deep copy.
func (b *Belief) Clone() *Belief {
	w := make([]float64, len(b.W))
	copy(w, b.W)
	return &Belief{Grid: b.Grid, W: w}
}

// CopyFrom makes b a deep copy of o, reusing b's weight buffer when the
// sizes match — the in-place counterpart of Clone for steady-state BP
// rounds.
func (b *Belief) CopyFrom(o *Belief) {
	b.Grid = o.Grid
	if cap(b.W) < len(o.W) {
		b.W = make([]float64, len(o.W))
	}
	b.W = b.W[:len(o.W)]
	copy(b.W, o.W)
}

// CloneInto copies b into dst and returns it, allocating only when dst is
// nil (or its buffer is too small). Use it to recycle a scratch belief
// across iterations.
func (b *Belief) CloneInto(dst *Belief) *Belief {
	if dst == nil {
		return b.Clone()
	}
	dst.CopyFrom(b)
	return dst
}

// Mass returns the (pre-normalization) total mass ΣW.
func (b *Belief) Mass() float64 {
	s := 0.0
	for _, w := range b.W {
		s += w
	}
	return s
}

// Normalize scales W to sum to 1 and reports success. If the mass is zero or
// non-finite the belief is left unchanged and false is returned.
func (b *Belief) Normalize() bool {
	s := b.Mass()
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return false
	}
	inv := 1 / s
	for i := range b.W {
		b.W[i] *= inv
	}
	return true
}

// Mul multiplies b pointwise by o (which must share the grid) without
// normalizing; the caller decides how to handle zero mass.
func (b *Belief) Mul(o *Belief) {
	if b.Grid != o.Grid {
		panic("bayes: Mul across different grids")
	}
	for i := range b.W {
		b.W[i] *= o.W[i]
	}
}

// MulFloored multiplies b by max(o, floor·max(o)) pointwise. The floor keeps
// a single over-confident (or corrupted) message from annihilating posterior
// mass — the standard loopy-BP damping safeguard.
func (b *Belief) MulFloored(o *Belief, floor float64) {
	b.MulFlooredMax(o, floor, o.Max())
}

// MulFlooredMax is MulFloored with o's maximum supplied by the caller.
// Callers that cache a convolved message across BP rounds can cache its max
// alongside it (the max only changes when the message is re-convolved),
// hoisting the O(cells) rescan out of every product. Passing mx == o.Max()
// makes the result bit-identical to MulFloored.
func (b *Belief) MulFlooredMax(o *Belief, floor, mx float64) {
	if b.Grid != o.Grid {
		panic("bayes: MulFloored across different grids")
	}
	f := floor * mx
	for i := range b.W {
		w := o.W[i]
		if w < f {
			w = f
		}
		b.W[i] *= w
	}
}

// Max returns the largest weight (0 for an all-zero belief).
func (b *Belief) Max() float64 {
	mx := 0.0
	for _, w := range b.W {
		if w > mx {
			mx = w
		}
	}
	return mx
}

// MulFunc multiplies b pointwise by f evaluated at cell centers. Negative or
// NaN values of f are treated as zero. f is only evaluated where b has mass:
// zero cells stay zero, so f must be finite (an infinite factor cannot revive
// them anyway) and free of side effects the caller depends on.
func (b *Belief) MulFunc(f func(mathx.Vec2) float64) {
	for idx, w := range b.W {
		if w == 0 {
			// Zero-mass cells stay zero under any finite factor, so f is not
			// evaluated there (part of the contract: factors cannot revive a
			// cell). This is what makes factor evaluation cost support-sized
			// rather than grid-sized once a prior has hard zeros.
			continue
		}
		b.W[idx] = w * factorAt(f, b.Grid.CenterIdx(idx))
	}
}

// MulFuncWithin is MulFunc for a factor that is exactly 1 at every cell
// center farther than reach from c along x or along y: f is evaluated only
// on the cells of the axis-aligned window [c−reach, c+reach]², rounded
// outward to whole cells, so every skipped cell center lies at least one
// cell width beyond reach. Skipping is exact — w·1 == w — so the result is
// bit-identical to MulFunc(f) while the cost follows the window, not the
// grid. A non-finite c or reach falls back to MulFunc, which keeps the
// product exact for every input.
func (b *Belief) MulFuncWithin(c mathx.Vec2, reach float64, f func(mathx.Vec2) float64) {
	g := b.Grid
	i0, i1, okX := windowSpan(c.X-reach, c.X+reach, g.Origin.X, g.CellW, g.NX)
	j0, j1, okY := windowSpan(c.Y-reach, c.Y+reach, g.Origin.Y, g.CellH, g.NY)
	if !okX || !okY {
		b.MulFunc(f)
		return
	}
	for j := j0; j <= j1; j++ {
		row := b.W[j*g.NX : (j+1)*g.NX]
		for i := i0; i <= i1; i++ {
			if w := row[i]; w != 0 {
				row[i] = w * factorAt(f, g.Center(i, j))
			}
		}
	}
}

// windowSpan maps the coordinate interval [lo, hi] onto the inclusive range
// of cell indices (origin o, width w, n cells) whose centers may fall in it,
// rounded outward and clamped to the grid; an empty range (the window misses
// the grid) comes back with i0 > i1. ok is false for a non-finite interval.
func windowSpan(lo, hi, o, w float64, n int) (i0, i1 int, ok bool) {
	a := math.Floor((lo-o)/w - 0.5)
	z := math.Ceil((hi-o)/w - 0.5)
	if math.IsNaN(a) || math.IsNaN(z) || math.IsInf(a, 0) || math.IsInf(z, 0) {
		return 0, 0, false
	}
	// Clamp in float space: converting an out-of-range float to int is
	// implementation-defined.
	a = math.Max(a, 0)
	z = math.Min(z, float64(n-1))
	if a > z {
		return 1, 0, true
	}
	return int(a), int(z), true
}

// factorAt evaluates a factor at p, mapping negative and NaN values to 0.
func factorAt(f func(mathx.Vec2) float64, p mathx.Vec2) float64 {
	v := f(p)
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return v
}

// Mean returns the probability-weighted mean position (the MMSE estimate).
func (b *Belief) Mean() mathx.Vec2 {
	var s mathx.Vec2
	for idx, w := range b.W {
		if w == 0 {
			continue
		}
		s = s.Add(b.Grid.CenterIdx(idx).Scale(w))
	}
	return s
}

// MAP returns the center of the highest-mass cell (the MAP estimate).
func (b *Belief) MAP() mathx.Vec2 {
	best, bestW := 0, b.W[0]
	for idx, w := range b.W[1:] {
		if w > bestW {
			best, bestW = idx+1, w
		}
	}
	return b.Grid.CenterIdx(best)
}

// Entropy returns the Shannon entropy in nats. Uniform beliefs score
// ln(cells); deltas score 0.
func (b *Belief) Entropy() float64 {
	h := 0.0
	for _, w := range b.W {
		if w > 0 {
			h -= w * math.Log(w)
		}
	}
	return h
}

// Spread returns the root-mean-squared distance of the belief from its mean
// — a physical-units confidence radius for the estimate.
func (b *Belief) Spread() float64 {
	m := b.Mean()
	s := 0.0
	for idx, w := range b.W {
		if w == 0 {
			continue
		}
		s += w * b.Grid.CenterIdx(idx).Dist2(m)
	}
	return math.Sqrt(s)
}

// Prune zeroes every cell whose mass lies strictly below rel·max(W) and
// renormalizes the survivors, returning the mass removed and the number of
// cells zeroed. It is the support-pruning primitive of large-network BP:
// dropping the negligible tail shrinks every subsequent support scan,
// convolution, and on-air message proportionally. rel must be in [0,1) —
// the peak cell always survives, so renormalization cannot fail on a belief
// with positive mass. rel <= 0 is a no-op.
func (b *Belief) Prune(rel float64) (mass float64, cells int) {
	if rel <= 0 {
		return 0, 0
	}
	if rel >= 1 {
		panic("bayes: Prune rel must be in [0,1)")
	}
	thr := rel * b.Max()
	if thr <= 0 {
		return 0, 0
	}
	for i, w := range b.W {
		if w != 0 && w < thr {
			mass += w
			cells++
			b.W[i] = 0
		}
	}
	if cells > 0 {
		b.Normalize()
	}
	return mass, cells
}

// L1Diff returns Σ|b−o|, the total-variation distance ×2, used as the BP
// convergence criterion.
func (b *Belief) L1Diff(o *Belief) float64 {
	if b.Grid != o.Grid {
		panic("bayes: L1Diff across different grids")
	}
	s := 0.0
	for i := range b.W {
		s += math.Abs(b.W[i] - o.W[i])
	}
	return s
}

// SupportEps is the default mass-loss tolerance of the support scans backing
// the sparse convolution path and on-air message sizing.
const SupportEps = 1e-3

// Support returns the indices of cells with non-negligible mass: cells are
// thresholded at epsilon·max/cells, so the scan stays O(cells) with no sort.
// For a normalized belief the cells left behind carry at most
// cells · epsilon·max/cells = epsilon·max ≤ epsilon of the total mass —
// i.e. the returned support holds at least (1−epsilon) of it. Used by the
// sparse convolution path.
func (b *Belief) Support(epsilon float64) []int {
	return b.AppendSupport(nil, epsilon)
}

// AppendSupport appends the support indices (see Support) to dst and returns
// the extended slice, so a caller-owned scratch buffer can make repeated
// support scans allocation-free.
func (b *Belief) AppendSupport(dst []int, epsilon float64) []int {
	thr, ok := b.supportThreshold(epsilon)
	if !ok {
		return dst
	}
	if dst == nil {
		dst = make([]int, 0, 64)
	}
	for idx, w := range b.W {
		if w > thr {
			dst = append(dst, idx)
		}
	}
	return dst
}

func (b *Belief) supportThreshold(epsilon float64) (float64, bool) {
	mx := 0.0
	for _, w := range b.W {
		if w > mx {
			mx = w
		}
	}
	if mx == 0 {
		return 0, false
	}
	// Threshold heuristic: cells below eps·max are negligible; with grids of
	// a few thousand cells, their total mass is bounded by cells·eps·max.
	return epsilon * mx / float64(len(b.W)), true
}
