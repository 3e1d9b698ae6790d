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
// each cell's weight is the probability mass attributed to its center. A
// belief stores only the cells of its window (see Window): W holds their
// weights row by row, and every cell outside the window has exactly zero
// mass. A Belief literal that sets only Grid and W spans the whole grid.
//
// Every operation walks the window in the grid's global row-major order,
// so each sum adds the same nonzero terms in the same order a walk over the
// whole grid would: the skipped cells are exact zeros, and no result
// depends on the window's size. Products, Normalize and Prune never turn a
// zero cell nonzero, so a belief derived from a trimmed one (see Trim) by
// those operations stays inside its window.
//
// A valid belief is normalized (ΣW = 1); operations that can drive the total
// mass to zero report it so callers can recover (typically by resetting to
// the prior).
type Belief struct {
	Grid *geom.Grid
	W    []float64
	// win is the block of cells W covers; the zero value means the whole
	// grid.
	win Window
}

// Window returns the block of grid cells W covers.
func (b *Belief) Window() Window {
	if b.win.NX == 0 {
		return fullWindow(b.Grid)
	}
	return b.win
}

// at returns the weight of cell (i, j): 0 outside the window.
func (b *Belief) at(i, j int) float64 {
	w := b.Window()
	if !w.contains(i, j) {
		return 0
	}
	return b.W[w.local(i, j)]
}

// At returns the weight of the cell with flat grid index idx (0 outside the
// window).
func (b *Belief) At(idx int) float64 {
	i, j := b.Grid.Coords(idx)
	return b.at(i, j)
}

// reshape re-windows b to w, reusing W's backing array when it is large
// enough. The weights are left unspecified.
func (b *Belief) reshape(w Window) {
	n := w.cells()
	if cap(b.W) < n {
		b.W = make([]float64, n)
	}
	b.W = b.W[:n]
	b.win = w
}

// NewZero returns the all-zero belief on window w of g. It panics if w does
// not lie inside g.
func NewZero(g *geom.Grid, w Window) *Belief {
	if !w.within(g) {
		panic("bayes: window outside the grid")
	}
	return &Belief{Grid: g, W: make([]float64, w.cells()), win: w}
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
// to the grid); its window is that one cell.
func NewDelta(g *geom.Grid, p mathx.Vec2) *Belief {
	i, j, _ := g.CellOf(p)
	return &Belief{Grid: g, W: []float64{1}, win: Window{I0: i, J0: j, NX: 1, NY: 1}}
}

// Clone returns a deep copy.
func (b *Belief) Clone() *Belief {
	w := make([]float64, len(b.W))
	copy(w, b.W)
	return &Belief{Grid: b.Grid, W: w, win: b.win}
}

// CopyFrom makes b a deep copy of o, reusing b's weight buffer when it is
// large enough — the in-place counterpart of Clone for steady-state BP
// rounds.
func (b *Belief) CopyFrom(o *Belief) {
	b.Grid = o.Grid
	b.win = o.win
	if cap(b.W) < len(o.W) {
		b.W = make([]float64, len(o.W))
	}
	b.W = b.W[:len(o.W)]
	copy(b.W, o.W)
}

// Trim shrinks b's window to the bounding box of its nonzero cells and
// moves W into storage of exactly that size, so the old buffer can be
// released. A belief already that tight, or all zero, is left unchanged.
func (b *Belief) Trim() {
	w := b.Window()
	i0, j0, i1, j1 := w.I0+w.NX, w.J0+w.NY, -1, -1
	for r := 0; r < w.NY; r++ {
		for c, v := range b.W[r*w.NX : (r+1)*w.NX] {
			if v != 0 {
				i0, i1 = min(i0, w.I0+c), max(i1, w.I0+c)
				j0, j1 = min(j0, w.J0+r), w.J0+r
			}
		}
	}
	if i1 < 0 {
		return
	}
	t := spanWindow(i0, j0, i1, j1)
	if t == w {
		return
	}
	W := make([]float64, t.cells())
	for r := 0; r < t.NY; r++ {
		copy(W[r*t.NX:(r+1)*t.NX], b.W[w.local(t.I0, t.J0+r):])
	}
	b.W, b.win = W, t
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
	w := b.Window()
	for r := 0; r < w.NY; r++ {
		for c := 0; c < w.NX; c++ {
			b.W[r*w.NX+c] *= o.at(w.I0+c, w.J0+r)
		}
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
	w := b.Window()
	for r := 0; r < w.NY; r++ {
		for c := 0; c < w.NX; c++ {
			v := o.at(w.I0+c, w.J0+r)
			if v < f {
				v = f
			}
			b.W[r*w.NX+c] *= v
		}
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
	w, g := b.Window(), b.Grid
	for r := 0; r < w.NY; r++ {
		row := b.W[r*w.NX : (r+1)*w.NX]
		for c, v := range row {
			if v == 0 {
				// Zero-mass cells stay zero under any finite factor, so f is
				// not evaluated there (part of the contract: factors cannot
				// revive a cell). This is what makes factor evaluation cost
				// support-sized rather than grid-sized once a prior has hard
				// zeros.
				continue
			}
			row[c] = v * factorAt(f, g.Center(w.I0+c, w.J0+r))
		}
	}
}

// MulFuncOf multiplies b pointwise by f(v[idx]), where v holds one value per
// grid cell in flat-index order — a per-cell quantity computed once and
// shared, such as the distance from every cell center to an anchor. Like
// MulFunc it maps negative and NaN factors to 0 and evaluates f only where
// b has mass.
func (b *Belief) MulFuncOf(v []float64, f func(float64) float64) {
	g := b.Grid
	if len(v) != g.Cells() {
		panic("bayes: MulFuncOf table does not match the grid")
	}
	w := b.Window()
	for r := 0; r < w.NY; r++ {
		row := b.W[r*w.NX : (r+1)*w.NX]
		vr := v[(w.J0+r)*g.NX+w.I0:][:w.NX]
		for c, x := range row {
			if x != 0 {
				row[c] = x * clampFactor(f(vr[c]))
			}
		}
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
	w := b.Window()
	i0, i1 = max(i0, w.I0), min(i1, w.I0+w.NX-1)
	j0, j1 = max(j0, w.J0), min(j1, w.J0+w.NY-1)
	for j := j0; j <= j1; j++ {
		row := b.W[(j-w.J0)*w.NX : (j-w.J0+1)*w.NX]
		for i := i0; i <= i1; i++ {
			if v := row[i-w.I0]; v != 0 {
				row[i-w.I0] = v * factorAt(f, g.Center(i, j))
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
	return clampFactor(f(p))
}

// clampFactor maps a negative or NaN factor value to 0.
func clampFactor(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return v
}

// Mean returns the probability-weighted mean position (the MMSE estimate).
func (b *Belief) Mean() mathx.Vec2 {
	w, g := b.Window(), b.Grid
	var s mathx.Vec2
	for r := 0; r < w.NY; r++ {
		for c, v := range b.W[r*w.NX : (r+1)*w.NX] {
			if v != 0 {
				s = s.Add(g.Center(w.I0+c, w.J0+r).Scale(v))
			}
		}
	}
	return s
}

// MAP returns the center of the highest-mass cell (the MAP estimate); ties
// go to the lowest flat index, and an all-zero belief reports cell (0, 0).
func (b *Belief) MAP() mathx.Vec2 {
	w := b.Window()
	bi, bj, best := 0, 0, b.at(0, 0)
	for r := 0; r < w.NY; r++ {
		for c, v := range b.W[r*w.NX : (r+1)*w.NX] {
			if v > best {
				bi, bj, best = w.I0+c, w.J0+r, v
			}
		}
	}
	return b.Grid.Center(bi, bj)
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
	w, g := b.Window(), b.Grid
	s := 0.0
	for r := 0; r < w.NY; r++ {
		for c, v := range b.W[r*w.NX : (r+1)*w.NX] {
			if v != 0 {
				s += v * g.Center(w.I0+c, w.J0+r).Dist2(m)
			}
		}
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
	bw, ow := b.Window(), o.Window()
	s := 0.0
	if bw == ow {
		for i, v := range b.W {
			s += math.Abs(v - o.W[i])
		}
		return s
	}
	u := bw.union(ow)
	for j := u.J0; j < u.J0+u.NY; j++ {
		for i := u.I0; i < u.I0+u.NX; i++ {
			s += math.Abs(b.at(i, j) - o.at(i, j))
		}
	}
	return s
}

// SupportEps is the default mass-loss tolerance of the support scans backing
// the sparse convolution path and on-air message sizing.
const SupportEps = 1e-3

// Support returns the flat grid indices of cells with non-negligible mass,
// in ascending order: cells are thresholded at epsilon·max/cells, where
// cells counts the whole grid, so the scan stays O(window) with no sort.
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
	w, nx := b.Window(), b.Grid.NX
	for r := 0; r < w.NY; r++ {
		base := (w.J0+r)*nx + w.I0
		for c, v := range b.W[r*w.NX : (r+1)*w.NX] {
			if v > thr {
				dst = append(dst, base+c)
			}
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
	// The divisor is the grid's cell count, not the window's, so a support
	// does not depend on how tightly the belief is windowed.
	return epsilon * mx / float64(b.Grid.Cells()), true
}
