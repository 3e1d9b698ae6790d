package bayes

import "wsnloc/internal/geom"

// FlooredMsg is the compact cached form of a convolved BP message. A node
// caches one convolved message per neighbor across BP rounds; storing those
// caches as dense grids is what dominates per-node memory at scale (degree ×
// cells × 8 bytes per node). FlooredMsg instead bakes MulFloored's damping
// floor in at build time and keeps only the cells of one window — the
// receiving belief's — and of those only the ones above the floor, as
// index/value pairs, falling back to a dense copy of the window when the
// sparse form would not pay off.
//
// MulInto(b) is bit-identical to b.MulFlooredMax(src, floor, src.Max()) on
// the source belief the message was compacted from, for every b whose mass
// lies inside the compacted window: every cell below f = floor·max
// multiplies by exactly f (the clamp MulFloored applies), and every cell at
// or above f multiplies by its stored value. The max, and hence f, is taken
// over the source's whole extent, not just the window.
type FlooredMsg struct {
	// floor is the absolute damping floor f = floorFrac·max(src): the factor
	// applied to every cell outside the stored support.
	floor float64
	// grid is the source belief's grid; win is the block of cells the
	// stored form covers. Cells outside win multiply by floor.
	grid *geom.Grid
	win  Window
	// Sparse form: idx/val hold the cells of win with weight > floor, as
	// ascending window-local indices.
	idx []int32
	val []float64
	// Dense form: the weights of win's cells with the floor clamp
	// pre-applied.
	dense   []float64
	isDense bool
	valid   bool
}

// Valid reports whether the message has been compacted from a source belief.
func (m *FlooredMsg) Valid() bool { return m.valid }

// SupportLen returns the number of sparse support cells (0 in dense form) —
// a memory-accounting hook for tests and diagnostics.
func (m *FlooredMsg) SupportLen() int { return len(m.idx) }

// Dense reports whether the message fell back to the dense representation.
func (m *FlooredMsg) Dense() bool { return m.isDense }

// CompactFrom rebuilds m from src over src's whole window; see
// CompactWithin.
func (m *FlooredMsg) CompactFrom(src *Belief, floorFrac float64) {
	m.CompactWithin(src, floorFrac, src.Window())
}

// CompactWithin rebuilds m from src with damping floor fraction floorFrac,
// keeping only the cells of win — the window of the belief the message will
// multiply. It reuses m's buffers, so steady-state recompaction is
// allocation-free once the buffers have grown to their working size. The
// sparse form is chosen when it is smaller than the dense copy (12 bytes per
// support cell versus 8 per window cell).
func (m *FlooredMsg) CompactWithin(src *Belief, floorFrac float64, win Window) {
	f := floorFrac * src.Max()
	m.floor, m.grid, m.win, m.valid = f, src.Grid, win, true
	sw := src.Window()
	ov, overlap := sw.intersect(win)
	n := 0
	if overlap {
		for r := 0; r < ov.NY; r++ {
			for _, w := range src.W[sw.local(ov.I0, ov.J0+r):][:ov.NX] {
				if w > f {
					n++
				}
			}
		}
	}
	cells := win.cells()
	if 3*n > 2*cells {
		m.isDense = true
		m.idx, m.val = m.idx[:0], m.val[:0]
		if cap(m.dense) < cells {
			m.dense = make([]float64, cells)
		}
		m.dense = m.dense[:cells]
		for i := range m.dense {
			m.dense[i] = f
		}
		for r := 0; r < ov.NY; r++ {
			row := m.dense[win.local(ov.I0, ov.J0+r):][:ov.NX]
			for c, w := range src.W[sw.local(ov.I0, ov.J0+r):][:ov.NX] {
				if w < f {
					w = f
				}
				row[c] = w
			}
		}
		return
	}
	m.isDense = false
	m.dense = m.dense[:0]
	if cap(m.idx) < n {
		m.idx = make([]int32, 0, n)
		m.val = make([]float64, 0, n)
	}
	m.idx, m.val = m.idx[:0], m.val[:0]
	if !overlap {
		return
	}
	for r := 0; r < ov.NY; r++ {
		base := win.local(ov.I0, ov.J0+r)
		for c, w := range src.W[sw.local(ov.I0, ov.J0+r):][:ov.NX] {
			if w > f {
				m.idx = append(m.idx, int32(base+c))
				m.val = append(m.val, w)
			}
		}
	}
}

// MulInto multiplies b pointwise by the floored message (see the type
// comment for the bit-identity contract): cells of the compacted window by
// their stored factor, every other cell by the floor. b must live on the
// grid the source belief was compacted from.
func (m *FlooredMsg) MulInto(b *Belief) {
	if !m.valid {
		panic("bayes: MulInto on an uncompacted FlooredMsg")
	}
	if b.Grid != m.grid {
		panic("bayes: MulInto across different grids")
	}
	bw, mw, f := b.Window(), m.win, m.floor
	// Walk b's rows; within each, the columns the message window shares
	// take the stored factors, the rest the floor. k is the next sparse
	// entry, advanced in step with the window-local index.
	i0, i1 := max(bw.I0, mw.I0), min(bw.I0+bw.NX, mw.I0+mw.NX)
	k := 0
	for r := 0; r < bw.NY; r++ {
		row := b.W[r*bw.NX : (r+1)*bw.NX]
		j := bw.J0 + r
		if j < mw.J0 || j >= mw.J0+mw.NY || i0 >= i1 {
			scaleAll(row, f)
			continue
		}
		lo, hi := i0-bw.I0, i1-bw.I0
		scaleAll(row[:lo], f)
		scaleAll(row[hi:], f)
		seg := row[lo:hi]
		base := mw.local(i0, j)
		if m.isDense {
			for c, v := range m.dense[base:][:len(seg)] {
				seg[c] *= v
			}
			continue
		}
		for k < len(m.idx) && int(m.idx[k]) < base {
			k++
		}
		for c := range seg {
			if k < len(m.idx) && int(m.idx[k]) == base+c {
				seg[c] *= m.val[k]
				k++
			} else {
				seg[c] *= f
			}
		}
	}
}

// scaleAll multiplies every weight of row by f.
func scaleAll(row []float64, f float64) {
	for i := range row {
		row[i] *= f
	}
}
