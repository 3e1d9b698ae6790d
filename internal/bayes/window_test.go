package bayes

import (
	"math"
	"testing"

	"wsnloc/internal/geom"
	"wsnloc/internal/mathx"
	"wsnloc/internal/rng"
)

// windowFactor is a factor that is exactly 1 at every point farther than
// reach from c along x or y, and an irregular value in (0.05, 1) inside —
// including the window boundary itself — with the odd negative or NaN value
// MulFunc must clamp to 0. calls counts evaluations.
func windowFactor(c mathx.Vec2, reach float64, calls *int) func(mathx.Vec2) float64 {
	return func(p mathx.Vec2) float64 {
		*calls++
		if math.Abs(p.X-c.X) > reach || math.Abs(p.Y-c.Y) > reach {
			return 1
		}
		h := math.Sin(p.X*12.9898+p.Y*78.233) * 43758.5453
		u := h - math.Floor(h)
		switch {
		case u < 0.02:
			return -u
		case u < 0.04:
			return math.NaN()
		}
		return 0.05 + 0.9*u
	}
}

// TestMulFuncWithinBitIdentical: whenever the factor is 1 outside the reach,
// the windowed multiply equals MulFunc bit for bit — for random centers on,
// off and at the corners of the grid, reaches from sub-cell to larger than
// the grid, non-square cells, and beliefs with zero-mass cells — while
// evaluating the factor only on the window.
func TestMulFuncWithinBitIdentical(t *testing.T) {
	grids := map[string]*geom.Grid{
		"square-40":   geom.NewGrid(geom.NewRect(0, 0, 100, 100), 40, 40),
		"nonsquare":   geom.NewGrid(geom.NewRect(-20, 5, 80, 60), 30, 17),
		"tall-narrow": geom.NewGrid(geom.NewRect(3, -7, 9, 91), 5, 61),
		"single-cell": geom.NewGrid(geom.NewRect(0, 0, 2, 3), 1, 1),
	}
	stream := rng.New(42)
	for name, g := range grids {
		bb := g.Bounds()
		w, h := bb.Width(), bb.Height()
		centers := []mathx.Vec2{
			bb.Min, bb.Max, mathx.V2(bb.Min.X, bb.Max.Y), mathx.V2(bb.Max.X, bb.Min.Y),
			g.Center(0, 0), g.Center(g.NX-1, g.NY-1), g.Center(g.NX/2, g.NY/2),
			mathx.V2(bb.Min.X-0.7*w, bb.Min.Y+0.5*h), mathx.V2(bb.Max.X+3*w, bb.Max.Y+2*h),
		}
		for i := 0; i < 40; i++ {
			centers = append(centers, mathx.V2(
				bb.Min.X+stream.Uniform(-0.5, 1.5)*w,
				bb.Min.Y+stream.Uniform(-0.5, 1.5)*h))
		}
		reaches := []float64{0, 0.3 * g.CellW, g.CellW, g.CellH, 2 * g.CellW, 3.5 * g.CellH,
			0.5 * math.Min(w, h), math.Hypot(w, h), 10 * math.Max(w, h)}
		for i := 0; i < 10; i++ {
			reaches = append(reaches, stream.Uniform(0, 1.2*math.Max(w, h)))
		}
		for _, c := range centers {
			for _, reach := range reaches {
				src := randomBelief(g, stream)
				for i := range src.W {
					if stream.Float64() < 0.3 {
						src.W[i] = 0 // zero-mass cells stay zero and skip f
					}
				}
				want := src.Clone()
				var full, windowed int
				want.MulFunc(windowFactor(c, reach, &full))
				got := src.Clone()
				got.MulFuncWithin(c, reach, windowFactor(c, reach, &windowed))
				for idx := range want.W {
					if math.Float64bits(got.W[idx]) != math.Float64bits(want.W[idx]) {
						t.Fatalf("%s c=%v reach=%v cell %d: windowed %v, full %v",
							name, c, reach, idx, got.W[idx], want.W[idx])
					}
				}
				// The window rounds outward by at most one cell per side.
				nx := math.Min(float64(g.NX), 2*reach/g.CellW+3)
				ny := math.Min(float64(g.NY), 2*reach/g.CellH+3)
				if float64(windowed) > nx*ny {
					t.Fatalf("%s c=%v reach=%v: %d evaluations, window holds at most %.0f cells",
						name, c, reach, windowed, nx*ny)
				}
			}
		}
	}
}

// TestMulFuncWithinNonFinite: a non-finite center or reach falls back to the
// full-grid multiply rather than computing a window from it.
func TestMulFuncWithinNonFinite(t *testing.T) {
	g := geom.NewGrid(geom.NewRect(0, 0, 10, 10), 5, 5)
	half := func(mathx.Vec2) float64 { return 0.5 }
	for _, tc := range []struct {
		c     mathx.Vec2
		reach float64
	}{
		{mathx.V2(math.NaN(), 5), 1},
		{mathx.V2(5, math.Inf(-1)), 1},
		{mathx.V2(5, 5), math.Inf(1)},
		{mathx.V2(5, 5), math.NaN()},
	} {
		b := NewUniform(g)
		b.MulFuncWithin(tc.c, tc.reach, half)
		for idx, w := range b.W {
			if w != 0.5/25 {
				t.Fatalf("c=%v reach=%v: cell %d = %v, want the full-grid product", tc.c, tc.reach, idx, w)
			}
		}
	}
}
