package bayes

import (
	"math"
	"testing"

	"wsnloc/internal/geom"
	"wsnloc/internal/mathx"
)

func gaussLik(d0, sigma float64) func(float64) float64 {
	return func(d float64) float64 { return mathx.NormalPDF(d, d0, sigma) }
}

func TestKernelRingFromDelta(t *testing.T) {
	g := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 50, 50)
	center := mathx.V2(50, 50)
	src := NewDelta(g, center)
	d0, sigma := 20.0, 2.0
	k := NewRadialKernel(g, gaussLik(d0, sigma), d0+4*sigma, 0)
	msg := k.Convolve(src)
	if !msg.Normalize() {
		t.Fatal("ring message has zero mass")
	}
	// The message must be a ring: mass concentrated near distance d0 from
	// the center, symmetric, with mean back at the center.
	if m := msg.Mean(); m.Dist(center) > 1.5 {
		t.Errorf("ring mean = %v", m)
	}
	// Expected distance from center ≈ d0.
	expDist := 0.0
	for idx := 0; idx < g.Cells(); idx++ {
		expDist += msg.At(idx) * g.CenterIdx(idx).Dist(center)
	}
	if math.Abs(expDist-d0) > 1.0 {
		t.Errorf("mean ring radius = %v, want %v", expDist, d0)
	}
	// Mass near the center must be negligible.
	nearMass := 0.0
	for idx := 0; idx < g.Cells(); idx++ {
		if g.CenterIdx(idx).Dist(center) < d0/2 {
			nearMass += msg.At(idx)
		}
	}
	if nearMass > 1e-6 {
		t.Errorf("center mass = %v", nearMass)
	}
}

func TestConvolveMatchesBruteForce(t *testing.T) {
	g := geom.NewGrid(geom.NewRect(0, 0, 20, 20), 10, 10)
	b, _ := NewFromFunc(g, func(p mathx.Vec2) float64 { return 1 + p.X + 2*p.Y })
	lik := gaussLik(5, 2)
	maxD := 5 + 4*2.0
	k := NewRadialKernel(g, lik, maxD, 1e-12)
	got := k.Convolve(b)

	// Brute force over all cell pairs.
	want := &Belief{Grid: g, W: make([]float64, g.Cells())}
	for ti := 0; ti < g.Cells(); ti++ {
		tc := g.CenterIdx(ti)
		for si := 0; si < g.Cells(); si++ {
			d := g.CenterIdx(si).Dist(tc)
			if d > maxD {
				continue
			}
			want.W[ti] += b.W[si] * lik(d)
		}
	}
	got.Normalize()
	want.Normalize()
	if diff := got.L1Diff(want); diff > 1e-6 {
		t.Errorf("convolution deviates from brute force by %v", diff)
	}
}

func TestKernelTruncationControlsSize(t *testing.T) {
	g := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 50, 50)
	loose := NewRadialKernel(g, gaussLik(10, 2), 18, 1e-12)
	tight := NewRadialKernel(g, gaussLik(10, 2), 18, 1e-2)
	if tight.Size() >= loose.Size() {
		t.Errorf("trimming did not shrink kernel: %d vs %d", tight.Size(), loose.Size())
	}
	if tight.Size() == 0 {
		t.Error("over-trimmed kernel empty")
	}
}

func TestKernelDegenerateLikelihood(t *testing.T) {
	g := geom.NewGrid(geom.NewRect(0, 0, 10, 10), 5, 5)
	k := NewRadialKernel(g, func(float64) float64 { return 0 }, 5, 0)
	if k.Size() != 1 {
		t.Fatalf("degenerate kernel size = %d", k.Size())
	}
	src := NewDelta(g, mathx.V2(5, 5))
	msg := k.Convolve(src)
	if !msg.Normalize() {
		t.Fatal("identity fallback produced zero message")
	}
	if msg.L1Diff(src) > 1e-12 {
		t.Error("identity kernel altered the belief")
	}
	// NaN likelihoods are sanitized too.
	kn := NewRadialKernel(g, func(float64) float64 { return math.NaN() }, 5, 0)
	if kn.Size() != 1 {
		t.Error("NaN kernel not collapsed to identity")
	}
}

func TestConvolveEdgeClipping(t *testing.T) {
	// A delta at the corner: the ring is clipped but mass must stay finite
	// and inside the grid.
	g := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 25, 25)
	src := NewDelta(g, mathx.V2(2, 2))
	k := NewRadialKernel(g, gaussLik(15, 2), 23, 0)
	msg := k.Convolve(src)
	if !msg.Normalize() {
		t.Fatal("clipped message lost all mass")
	}
	for idx, w := range msg.W {
		if w < 0 || math.IsNaN(w) {
			t.Fatalf("bad mass at %d", idx)
		}
	}
}

func TestConvolveGridMismatchPanics(t *testing.T) {
	g1 := geom.NewGrid(geom.NewRect(0, 0, 10, 10), 5, 5)
	g2 := geom.NewGrid(geom.NewRect(0, 0, 10, 10), 6, 6)
	k := NewRadialKernel(g1, gaussLik(3, 1), 7, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Convolve(NewUniform(g2))
}
