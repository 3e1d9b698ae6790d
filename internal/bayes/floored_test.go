package bayes

import (
	"math"
	"testing"

	"wsnloc/internal/geom"
	"wsnloc/internal/mathx"
	"wsnloc/internal/rng"
)

// diffuseBelief is a broad mixture that keeps most of the grid above any
// reasonable damping floor, forcing FlooredMsg onto its dense fallback.
func diffuseBelief(g *geom.Grid) *Belief {
	b, err := NewFromFunc(g, func(p mathx.Vec2) float64 {
		return 1 + 0.3*math.Sin(p.X/9)*math.Cos(p.Y/13)
	})
	if err != nil {
		panic(err)
	}
	return b
}

// heavyTailBelief returns a normalized belief where most cells are
// negligible and a few dominate — the shape pruning and sparse compaction
// are built for.
func heavyTailBelief(g *geom.Grid, stream *rng.Stream) *Belief {
	b := &Belief{Grid: g, W: make([]float64, g.Cells())}
	for i := range b.W {
		b.W[i] = math.Pow(stream.Float64(), 8)
	}
	if !b.Normalize() {
		panic("zero-mass heavy-tail belief")
	}
	return b
}

// TestFlooredMsgMatchesMulFlooredMax pins the bit-identity contract: for any
// message, multiplying through the compact form must equal MulFlooredMax on
// the dense original, bit for bit — sparse and dense fallback alike.
func TestFlooredMsgMatchesMulFlooredMax(t *testing.T) {
	g := testGrid()
	stream := rng.New(42)
	msgs := map[string]*Belief{
		"concentrated": concentratedBelief(g),
		"diffuse":      diffuseBelief(g),
		"uniform":      NewUniform(g),
		"zero":         {Grid: g, W: make([]float64, g.Cells())},
		"delta":        NewDelta(g, mathx.V2(33, 71)),
	}
	for i := 0; i < 8; i++ {
		msgs["random"] = heavyTailBelief(g, stream)
		for name, src := range msgs {
			for _, floor := range []float64{0, 2e-3, 0.1} {
				base := heavyTailBelief(g, stream)
				want := base.Clone()
				want.MulFlooredMax(src, floor, src.Max())

				var m FlooredMsg
				m.CompactFrom(src, floor)
				got := base.Clone()
				m.MulInto(got)

				for c := range want.W {
					if got.W[c] != want.W[c] {
						t.Fatalf("%s floor=%g: W[%d] = %g, want %g (dense=%v)",
							name, floor, c, got.W[c], want.W[c], m.Dense())
					}
				}
			}
		}
	}
}

// TestFlooredMsgForms checks the representation choice: a concentrated
// message compacts sparse, a diffuse one falls back to dense.
func TestFlooredMsgForms(t *testing.T) {
	g := testGrid()
	var m FlooredMsg
	if m.Valid() {
		t.Fatal("zero FlooredMsg reports Valid")
	}
	m.CompactFrom(concentratedBelief(g), 2e-3)
	if !m.Valid() || m.Dense() {
		t.Errorf("concentrated message: valid=%v dense=%v, want sparse", m.Valid(), m.Dense())
	}
	if s := m.SupportLen(); s == 0 || s > g.Cells()/2 {
		t.Errorf("concentrated support = %d of %d cells", s, g.Cells())
	}
	m.CompactFrom(diffuseBelief(g), 2e-3)
	if !m.Dense() {
		t.Error("diffuse message did not fall back to dense form")
	}
	// Recompacting back to sparse must drop the dense buffer's length.
	m.CompactFrom(concentratedBelief(g), 2e-3)
	if m.Dense() {
		t.Error("recompacted concentrated message stayed dense")
	}
}

func TestFlooredMsgInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MulInto on an uncompacted FlooredMsg did not panic")
		}
	}()
	var m FlooredMsg
	m.MulInto(NewUniform(testGrid()))
}

// TestPruneMassAndRenorm checks Prune's contract: removed mass and cell
// counts are reported, survivors renormalize to 1, and the peak survives.
func TestPruneMassAndRenorm(t *testing.T) {
	g := testGrid()
	stream := rng.New(7)
	for i := 0; i < 16; i++ {
		b := heavyTailBelief(g, stream)
		before := b.Clone()
		thr := 1e-2 * b.Max()
		wantMass, wantCells := 0.0, 0
		for _, w := range b.W {
			if w != 0 && w < thr {
				wantMass += w
				wantCells++
			}
		}
		mass, cells := b.Prune(1e-2)
		if mass != wantMass || cells != wantCells {
			t.Fatalf("Prune = (%g, %d), want (%g, %d)", mass, cells, wantMass, wantCells)
		}
		if !mathx.AlmostEqual(b.Mass(), 1, 1e-12) {
			t.Fatalf("pruned mass = %v, want 1", b.Mass())
		}
		if b.MAP() != before.MAP() {
			t.Error("Prune moved the MAP cell")
		}
		for c, w := range b.W {
			if w == 0 && before.W[c] >= thr && before.W[c] != 0 {
				t.Fatalf("cell %d above threshold was pruned", c)
			}
		}
	}
}

func TestPruneEdgeCases(t *testing.T) {
	g := testGrid()
	if mass, cells := NewUniform(g).Prune(0); mass != 0 || cells != 0 {
		t.Error("Prune(0) must be a no-op")
	}
	// Uniform belief: no cell is below rel·max for rel < 1.
	if mass, cells := NewUniform(g).Prune(0.5); mass != 0 || cells != 0 {
		t.Errorf("uniform Prune(0.5) removed (%g, %d)", mass, cells)
	}
	// Zero-mass belief: nothing to prune, nothing to renormalize.
	z := &Belief{Grid: g, W: make([]float64, g.Cells())}
	if mass, cells := z.Prune(0.5); mass != 0 || cells != 0 {
		t.Error("zero-mass Prune must be a no-op")
	}
	// A delta already has minimal support.
	d := NewDelta(g, mathx.V2(10, 10))
	if _, cells := d.Prune(0.9); cells != 0 {
		t.Error("delta Prune removed cells")
	}
	defer func() {
		if recover() == nil {
			t.Error("Prune(1) did not panic")
		}
	}()
	NewUniform(g).Prune(1)
}

// TestSteadyStateBPOpsZeroAlloc is the allocation-regression guard for the
// scale path: one steady-state BP round's worth of belief ops — convolve,
// compact, floored multiply, normalize, prune, reset — must stay at 0
// allocs/op once the node-local scratch has warmed up, pruning included.
func TestSteadyStateBPOpsZeroAlloc(t *testing.T) {
	g := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 40, 40)
	k := NewRadialKernel(g, func(d float64) float64 {
		return mathx.NormalPDF(d, 15, 1.5)
	}, 21, 0)
	src := concentratedBelief(g)
	prior := concentratedBelief(g)
	msg := &Belief{Grid: g, W: make([]float64, g.Cells())}
	post := &Belief{Grid: g, W: make([]float64, g.Cells())}
	var compact FlooredMsg
	var scratch ConvScratch
	// The sender's support scan ships with its belief; it is not part of
	// the receiver's round.
	support := src.Support(SupportEps)

	round := func() {
		k.ConvolveWith(msg, src, support, ConvSparse, &scratch)
		compact.CompactFrom(msg, 2e-3)
		post.CopyFrom(prior)
		compact.MulInto(post)
		if !post.Normalize() {
			post.CopyFrom(prior)
		}
		post.Prune(1e-3)
	}
	round() // warm the scratch buffers
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("steady-state BP ops allocate %v allocs/op, want 0", allocs)
	}
}
