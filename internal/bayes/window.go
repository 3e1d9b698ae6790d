package bayes

import "wsnloc/internal/geom"

// Window is a rectangular block of a grid's cells: columns I0 … I0+NX−1 and
// rows J0 … J0+NY−1. A Belief stores the weights of its window's cells only,
// row by row, so walking W visits the cells in the grid's global row-major
// order; every cell outside the window has exactly zero mass.
type Window struct {
	I0, J0 int // lower-left cell
	NX, NY int // extent in cells
}

// fullWindow is the window covering all of g.
func fullWindow(g *geom.Grid) Window { return Window{NX: g.NX, NY: g.NY} }

// cells returns the number of cells in the window.
func (w Window) cells() int { return w.NX * w.NY }

// contains reports whether cell (i, j) lies in the window.
func (w Window) contains(i, j int) bool {
	return i >= w.I0 && i < w.I0+w.NX && j >= w.J0 && j < w.J0+w.NY
}

// local returns the W index of cell (i, j), which must lie in the window.
func (w Window) local(i, j int) int { return (j-w.J0)*w.NX + i - w.I0 }

// within reports whether the window lies inside g.
func (w Window) within(g *geom.Grid) bool {
	return w.NX > 0 && w.NY > 0 && w.I0 >= 0 && w.J0 >= 0 && w.I0+w.NX <= g.NX && w.J0+w.NY <= g.NY
}

// spanWindow is the window of the cell block [i0, i1] × [j0, j1] (inclusive).
func spanWindow(i0, j0, i1, j1 int) Window {
	return Window{I0: i0, J0: j0, NX: i1 - i0 + 1, NY: j1 - j0 + 1}
}

// intersect returns the cells common to w and o; ok is false when they are
// disjoint.
func (w Window) intersect(o Window) (Window, bool) {
	i0, j0 := max(w.I0, o.I0), max(w.J0, o.J0)
	i1, j1 := min(w.I0+w.NX, o.I0+o.NX), min(w.J0+w.NY, o.J0+o.NY)
	if i0 >= i1 || j0 >= j1 {
		return Window{}, false
	}
	return Window{I0: i0, J0: j0, NX: i1 - i0, NY: j1 - j0}, true
}

// union returns the smallest window containing both w and o.
func (w Window) union(o Window) Window {
	i0, j0 := min(w.I0, o.I0), min(w.J0, o.J0)
	i1, j1 := max(w.I0+w.NX, o.I0+o.NX), max(w.J0+w.NY, o.J0+o.NY)
	return Window{I0: i0, J0: j0, NX: i1 - i0, NY: j1 - j0}
}
