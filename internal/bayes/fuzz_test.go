package bayes

import (
	"math"
	"testing"

	"wsnloc/internal/geom"
	"wsnloc/internal/mathx"
	"wsnloc/internal/rng"
)

// The reference side of FuzzBeliefWindow: plain loops over a belief's
// weights expanded to the whole grid (flat index order), written without
// windows so a windowed operation can be checked against them bit for bit.

func refMass(d []float64) float64 {
	s := 0.0
	for _, w := range d {
		s += w
	}
	return s
}

func refNormalize(d []float64) bool {
	s := refMass(d)
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return false
	}
	inv := 1 / s
	for i := range d {
		d[i] *= inv
	}
	return true
}

func refMax(d []float64) float64 {
	mx := 0.0
	for _, w := range d {
		if w > mx {
			mx = w
		}
	}
	return mx
}

func refPrune(d []float64, rel float64) (mass float64, cells int) {
	thr := rel * refMax(d)
	if thr <= 0 {
		return 0, 0
	}
	for i, w := range d {
		if w != 0 && w < thr {
			mass += w
			cells++
			d[i] = 0
		}
	}
	if cells > 0 {
		refNormalize(d)
	}
	return mass, cells
}

func refMean(g *geom.Grid, d []float64) mathx.Vec2 {
	var s mathx.Vec2
	for idx, w := range d {
		if w != 0 {
			s = s.Add(g.CenterIdx(idx).Scale(w))
		}
	}
	return s
}

func refSpread(g *geom.Grid, d []float64) float64 {
	m := refMean(g, d)
	s := 0.0
	for idx, w := range d {
		if w != 0 {
			s += w * g.CenterIdx(idx).Dist2(m)
		}
	}
	return math.Sqrt(s)
}

func refSupport(d []float64, eps float64) []int {
	mx := refMax(d)
	if mx == 0 {
		return nil
	}
	thr := eps * mx / float64(len(d))
	var out []int
	for idx, w := range d {
		if w > thr {
			out = append(out, idx)
		}
	}
	return out
}

func refL1(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// refMulFloored multiplies d by max(msg, floor·max(msg)) cell by cell.
func refMulFloored(d, msg []float64, floor float64) {
	f := floor * refMax(msg)
	for i, v := range msg {
		if v < f {
			v = f
		}
		d[i] *= v
	}
}

// refMulFunc multiplies every nonzero cell of d by f at its center.
func refMulFunc(g *geom.Grid, d []float64, f func(mathx.Vec2) float64) {
	for idx, w := range d {
		if w == 0 {
			continue
		}
		v := f(g.CenterIdx(idx))
		if v < 0 || math.IsNaN(v) {
			v = 0
		}
		d[idx] = w * v
	}
}

// refScatter is the per-offset sparse convolution of src's support.
func refScatter(k *RadialKernel, g *geom.Grid, src []float64) []float64 {
	out := make([]float64, len(src))
	for _, s := range refSupport(src, SupportEps) {
		si, sj := s%g.NX, s/g.NX
		for _, o := range k.offs {
			ti, tj := si+o.di, sj+o.dj
			if ti >= 0 && ti < g.NX && tj >= 0 && tj < g.NY {
				out[tj*g.NX+ti] += src[s] * o.w
			}
		}
	}
	return out
}

// refFFT is the dense path on the whole grid: zero-pad, transform, multiply
// the kernel spectrum, transform back, clamp negatives.
func refFFT(k *RadialKernel, g *geom.Grid, src []float64) []float64 {
	sp := k.spectrum()
	buf := make([]complex128, sp.px*sp.py)
	for idx, w := range src {
		buf[(idx/g.NX)*sp.px+idx%g.NX] = complex(w, 0)
	}
	mathx.FFT2D(buf, sp.px, sp.py, false)
	for i := range buf {
		buf[i] *= sp.f[i]
	}
	mathx.FFT2D(buf, sp.px, sp.py, true)
	out := make([]float64, len(src))
	for idx := range out {
		w := real(buf[(idx/g.NX)*sp.px+idx%g.NX])
		if w < 0 {
			w = 0
		}
		out[idx] = w
	}
	return out
}

// expand returns b's weights on the whole grid.
func expand(b *Belief) []float64 {
	d := make([]float64, b.Grid.Cells())
	for idx := range d {
		d[idx] = b.At(idx)
	}
	return d
}

// fuzzWindow derives a window of g from four bytes: any origin, any extent
// that fits, so 1-cell, full-grid and edge-touching windows all occur.
func fuzzWindow(g *geom.Grid, i0, j0, nx, ny uint8) Window {
	w := Window{I0: int(i0) % g.NX, J0: int(j0) % g.NY}
	w.NX = 1 + int(nx)%(g.NX-w.I0)
	w.NY = 1 + int(ny)%(g.NY-w.J0)
	return w
}

// fuzzBelief fills window w of g with random weights, a share zeroPct/256
// of them exactly zero, and returns it with the same weights on the whole
// grid.
func fuzzBelief(g *geom.Grid, w Window, s *rng.Stream, zeroPct uint8) (*Belief, []float64) {
	b := NewZero(g, w)
	d := make([]float64, g.Cells())
	for r := 0; r < w.NY; r++ {
		for c := 0; c < w.NX; c++ {
			v := 0.0
			if s.Uint64()%256 >= uint64(zeroPct) {
				v = s.Float64() * math.Pow(10, -4*s.Float64())
			}
			b.W[r*w.NX+c] = v
			d[(w.J0+r)*g.NX+w.I0+c] = v
		}
	}
	return b, d
}

// sameBits reports whether a windowed belief holds exactly the reference's
// weights, cell for cell.
func sameBits(t *testing.T, what string, b *Belief, want []float64) {
	t.Helper()
	for idx, v := range want {
		if got := b.At(idx); math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("%s: cell %d = %v, reference %v (window %+v)", what, idx, got, v, b.Window())
		}
	}
}

func sameFloat(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %v, reference %v", what, got, want)
	}
}

// FuzzBeliefWindow checks every windowed belief operation against the
// whole-grid reference loops above, bit for bit: the product with a
// FlooredMsg (compacted on the belief's window and on the message's own),
// Normalize, Prune, L1Diff, Mean, Spread, MAP, the support scan,
// MulFuncWithin, Trim, and both convolution paths. Grids, windows, weights
// and zero patterns all come from the input.
func FuzzBeliefWindow(f *testing.F) {
	// seed, grid size, window (origin, extent), zero share, message window.
	f.Add(uint64(1), uint8(12), uint8(9), uint8(3), uint8(2), uint8(4), uint8(5), uint8(40), uint8(1), uint8(1), uint8(200), uint8(200))
	f.Add(uint64(2), uint8(15), uint8(15), uint8(7), uint8(7), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(255), uint8(255))   // 1-cell window
	f.Add(uint64(3), uint8(10), uint8(13), uint8(0), uint8(0), uint8(9), uint8(12), uint8(128), uint8(2), uint8(3), uint8(1), uint8(1))    // full grid
	f.Add(uint64(4), uint8(17), uint8(11), uint8(0), uint8(4), uint8(2), uint8(3), uint8(64), uint8(16), uint8(10), uint8(0), uint8(0))    // left edge
	f.Add(uint64(5), uint8(17), uint8(11), uint8(14), uint8(0), uint8(255), uint8(2), uint8(64), uint8(0), uint8(0), uint8(16), uint8(10)) // right and bottom edges
	f.Add(uint64(6), uint8(9), uint8(20), uint8(3), uint8(17), uint8(4), uint8(255), uint8(230), uint8(8), uint8(0), uint8(0), uint8(19))  // top edge, mostly zero
	f.Add(uint64(7), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))         // 1×1 grid
	f.Fuzz(func(t *testing.T, seed uint64, gx, gy, i0, j0, nx, ny, zeroPct, mi0, mj0, mnx, mny uint8) {
		g := geom.NewGrid(geom.NewRect(-13, 7, 41, 52), 1+int(gx)%24, 1+int(gy)%24)
		s := rng.New(seed)
		win := fuzzWindow(g, i0, j0, nx, ny)
		b, d := fuzzBelief(g, win, s, zeroPct)

		sameFloat(t, "Mass", b.Mass(), refMass(d))
		sameFloat(t, "Max", b.Max(), refMax(d))
		if got, want := b.Support(SupportEps), refSupport(d, SupportEps); len(got) != len(want) {
			t.Fatalf("Support has %d cells, reference %d", len(got), len(want))
		} else {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Support[%d] = %d, reference %d", i, got[i], want[i])
				}
			}
		}

		// Trim keeps every weight, and its window is the bounding box of the
		// nonzero cells.
		tr := b.Clone()
		tr.Trim()
		sameBits(t, "Trim", tr, d)
		if refMax(d) > 0 {
			box := Window{I0: g.NX, J0: g.NY}
			i1, j1 := -1, -1
			for idx, w := range d {
				if w != 0 {
					i, j := idx%g.NX, idx/g.NX
					box.I0, box.J0 = min(box.I0, i), min(box.J0, j)
					i1, j1 = max(i1, i), max(j1, j)
				}
			}
			box.NX, box.NY = i1-box.I0+1, j1-box.J0+1
			if tr.Window() != box {
				t.Fatalf("Trim window %+v, nonzero bounding box %+v", tr.Window(), box)
			}
		}

		if got, want := b.Normalize(), refNormalize(d); got != want {
			t.Fatalf("Normalize = %v, reference %v", got, want)
		}
		sameBits(t, "Normalize", b, d)
		sameFloat(t, "Mean.X", b.Mean().X, refMean(g, d).X)
		sameFloat(t, "Mean.Y", b.Mean().Y, refMean(g, d).Y)
		sameFloat(t, "Spread", b.Spread(), refSpread(g, d))
		best := 0
		for idx, w := range d {
			if w > d[best] {
				best = idx
			}
		}
		if b.MAP() != g.CenterIdx(best) {
			t.Fatalf("MAP = %v, reference %v", b.MAP(), g.CenterIdx(best))
		}

		// A second belief on its own window: L1Diff across windows.
		mwin := fuzzWindow(g, mi0, mj0, mnx, mny)
		o, od := fuzzBelief(g, mwin, s, zeroPct/2)
		sameFloat(t, "L1Diff", b.L1Diff(o), refL1(d, od))
		sameFloat(t, "L1Diff (same window)", b.L1Diff(tr), refL1(d, expand(tr)))

		// Both convolution paths, from the belief's support.
		k := NewRadialKernel(g, func(x float64) float64 {
			return mathx.NormalPDF(x, 2.5*g.CellW, 0.6*g.CellW)
		}, 4*g.CellW, 0)
		sc := &ConvScratch{}
		support := b.Support(SupportEps)
		msg := NewZero(g, Window{NX: 1, NY: 1})
		k.ConvolveWith(msg, b, support, ConvSparse, sc)
		sameBits(t, "sparse convolution", msg, refScatter(k, g, d))
		fft := NewZero(g, Window{NX: 1, NY: 1})
		k.ConvolveWith(fft, b, support, ConvFFT, sc)
		fd := refFFT(k, g, d)
		sameBits(t, "FFT convolution", fft, fd)

		// The floored product, compacted on the receiving window and on the
		// message's own extent.
		for _, m := range []*Belief{msg, fft, o} {
			md := expand(m)
			for _, floor := range []float64{0, 2e-3, 0.3} {
				want := append([]float64(nil), od...)
				refMulFloored(want, md, floor)
				var fm FlooredMsg
				got := o.Clone()
				fm.CompactWithin(m, floor, got.Window())
				fm.MulInto(got)
				sameBits(t, "MulInto (receiver window)", got, want)
				got = o.Clone()
				fm.CompactFrom(m, floor)
				fm.MulInto(got)
				sameBits(t, "MulInto (message window)", got, want)
			}
		}

		// MulFuncWithin against the reference MulFunc: the factor is 1
		// beyond the reach, so the two must agree.
		c := mathx.V2(-13+54*s.Float64(), 7+45*s.Float64())
		reach := 30 * s.Float64()
		var calls int
		want := append([]float64(nil), d...)
		refMulFunc(g, want, windowFactor(c, reach, &calls))
		got := b.Clone()
		got.MulFuncWithin(c, reach, windowFactor(c, reach, &calls))
		sameBits(t, "MulFuncWithin", got, want)

		// Prune last: it rewrites d.
		rel := []float64{1e-3, 0.05, 0.5}[seed%3]
		mass, cells := b.Prune(rel)
		wantMass, wantCells := refPrune(d, rel)
		if cells != wantCells {
			t.Fatalf("Prune zeroed %d cells, reference %d", cells, wantCells)
		}
		sameFloat(t, "Prune mass", mass, wantMass)
		sameBits(t, "Prune", b, d)
	})
}
