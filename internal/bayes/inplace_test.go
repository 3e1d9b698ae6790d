package bayes

import (
	"testing"

	"wsnloc/internal/geom"
	"wsnloc/internal/mathx"
)

// Tests for the allocation-lean in-place variants: they must be drop-in
// replacements for their allocating counterparts, bit for bit.

func concentratedBelief(g *geom.Grid) *Belief {
	b, err := NewFromFunc(g, func(p mathx.Vec2) float64 {
		return mathx.NormalPDF(p.Dist(mathx.V2(30, 70)), 0, 5)
	})
	if err != nil {
		panic(err)
	}
	return b
}

func TestCopyFromMatchesClone(t *testing.T) {
	g := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 20, 20)
	src := concentratedBelief(g)

	dst := NewUniform(g)
	buf := &dst.W[0]
	dst.CopyFrom(src)
	if &dst.W[0] != buf {
		t.Error("CopyFrom reallocated a buffer of matching size")
	}
	want := src.Clone()
	for i := range want.W {
		if dst.W[i] != want.W[i] {
			t.Fatalf("W[%d] = %g, want %g", i, dst.W[i], want.W[i])
		}
	}

	// Growing copy: a too-small destination must be resized, not truncated.
	small := &Belief{Grid: g, W: make([]float64, 3)}
	small.CopyFrom(src)
	if len(small.W) != len(src.W) {
		t.Fatalf("CopyFrom left %d cells, want %d", len(small.W), len(src.W))
	}
}

func TestCloneIntoNilAllocates(t *testing.T) {
	g := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 10, 10)
	src := NewUniform(g)
	got := src.CloneInto(nil)
	if got == src || &got.W[0] == &src.W[0] {
		t.Fatal("CloneInto(nil) must return an independent copy")
	}
	reused := &Belief{Grid: g, W: make([]float64, g.Cells())}
	if src.CloneInto(reused) != reused {
		t.Error("CloneInto must return the reused destination")
	}
}

func TestAppendSupportMatchesSupport(t *testing.T) {
	g := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 25, 25)
	for name, b := range map[string]*Belief{
		"uniform":      NewUniform(g),
		"concentrated": concentratedBelief(g),
		"zero":         {Grid: g, W: make([]float64, g.Cells())},
	} {
		want := b.Support(1e-3)
		scratch := make([]int, 7) // non-empty: AppendSupport must reset it
		got := b.AppendSupport(scratch[:0], 1e-3)
		if len(got) != len(want) {
			t.Fatalf("%s: AppendSupport len %d, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: AppendSupport[%d] = %d, want %d", name, i, got[i], want[i])
			}
		}
	}
}

func TestConvolveIntoMatchesConvolve(t *testing.T) {
	g := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 40, 40)
	k := NewRadialKernel(g, func(d float64) float64 {
		return mathx.NormalPDF(d, 15, 1.5)
	}, 21, 0)
	src := concentratedBelief(g)

	want := k.Convolve(src)
	// Dirty destination: ConvolveInto must fully overwrite it.
	dst := NewUniform(g)
	var scratch []int
	scratch = k.ConvolveInto(dst, src, scratch)
	for i := range want.W {
		if dst.W[i] != want.W[i] {
			t.Fatalf("W[%d] = %g, want %g", i, dst.W[i], want.W[i])
		}
	}
	if len(scratch) == 0 {
		t.Error("ConvolveInto returned an empty support scratch for a massive source")
	}
	// Second run with the returned scratch must give the same answer.
	k.ConvolveInto(dst, src, scratch)
	for i := range want.W {
		if dst.W[i] != want.W[i] {
			t.Fatalf("scratch reuse: W[%d] = %g, want %g", i, dst.W[i], want.W[i])
		}
	}
}

func TestConvolveIntoAliasPanics(t *testing.T) {
	g := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 10, 10)
	k := NewRadialKernel(g, func(d float64) float64 { return 1 }, 15, 0)
	b := NewUniform(g)
	defer func() {
		if recover() == nil {
			t.Error("ConvolveInto(b, b) did not panic")
		}
	}()
	k.ConvolveInto(b, b, nil)
}
