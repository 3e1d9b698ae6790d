package core

import (
	"testing"

	"wsnloc/internal/bayes"
	"wsnloc/internal/geom"
	"wsnloc/internal/radio"
)

func testEnv(t *testing.T) *env {
	t.Helper()
	p := testProblem(t, 200, 40, 0.2)
	return &env{
		p:    p,
		cfg:  Config{}.withDefaults(),
		grid: geom.NewGrid(p.Deploy.Region.Bounds(), 40, 40),
	}
}

func TestKernelCacheQuantizesAndShares(t *testing.T) {
	e := testEnv(t)
	kc := newKernelCache(e)
	// Measurements within half a cell map to the same kernel object.
	k1 := kc.forMeasurement(10.0)
	k2 := kc.forMeasurement(10.0 + kc.quant/4)
	if k1 != k2 {
		t.Error("nearby measurements did not share a kernel")
	}
	// Distant measurements get distinct kernels.
	k3 := kc.forMeasurement(15.0)
	if k1 == k3 {
		t.Error("distinct measurements shared a kernel")
	}
	if len(kc.table) != 2 {
		t.Errorf("cache size = %d", len(kc.table))
	}
	// Repeated lookups do not grow the cache.
	kc.forMeasurement(10.0)
	kc.forMeasurement(15.0)
	if len(kc.table) != 2 {
		t.Errorf("cache grew on repeat lookups: %d", len(kc.table))
	}
}

func TestKernelCacheKernelShape(t *testing.T) {
	e := testEnv(t)
	kc := newKernelCache(e)
	k := kc.forMeasurement(12.0)
	if k.Size() == 0 {
		t.Fatal("empty kernel")
	}
	// The kernel support must cover at least the measured ring: radius in
	// cells ≈ meas/cellW; its offset count is roughly the ring area.
	if k.Size() < 8 {
		t.Errorf("kernel suspiciously small: %d offsets", k.Size())
	}
}

func TestKernelCacheHopRangerWidens(t *testing.T) {
	// For a connectivity-only ranger the kernel must span the whole radio
	// range even though Sigma is small relative to R.
	p := testProblem(t, 201, 40, 0.2)
	hop := radio.HopRanger{R: p.R}
	p.Ranger = hop
	e := &env{p: p, cfg: Config{}.withDefaults(), grid: geom.NewGrid(p.Deploy.Region.Bounds(), 40, 40)}
	kc := newKernelCache(e)
	kHop := kc.forMeasurement(p.R)

	// Compare against a sharp TOA kernel at the same distance.
	p2 := testProblem(t, 201, 40, 0.2)
	e2 := &env{p: p2, cfg: Config{}.withDefaults(), grid: geom.NewGrid(p2.Deploy.Region.Bounds(), 40, 40)}
	kc2 := newKernelCache(e2)
	kTOA := kc2.forMeasurement(p2.R)

	// The hop kernel is a filled disk (any in-range distance is plausible):
	// convolving an anchor delta must leave mass near the anchor. The TOA
	// kernel is a ring: near-anchor mass must be negligible.
	center := e.grid.Bounds().Center()
	nearMass := func(k *bayes.RadialKernel, g *geom.Grid) float64 {
		msg := k.Convolve(bayes.NewDelta(g, center))
		if !msg.Normalize() {
			t.Fatal("empty message")
		}
		m := 0.0
		for idx := 0; idx < g.Cells(); idx++ {
			if g.CenterIdx(idx).Dist(center) < 0.25*p.R {
				m += msg.At(idx)
			}
		}
		return m
	}
	if got := nearMass(kHop, e.grid); got < 0.005 {
		t.Errorf("hop kernel near-anchor mass = %v, want disk coverage", got)
	}
	if got := nearMass(kTOA, e2.grid); got > 1e-4 {
		t.Errorf("TOA kernel near-anchor mass = %v, want ring", got)
	}
}

func TestIsFlatRanger(t *testing.T) {
	if !isFlatRanger(radio.HopRanger{R: 10}) {
		t.Error("HopRanger not detected as flat")
	}
	if isFlatRanger(radio.TOAGaussian{R: 10, SigmaFrac: 0.1}) {
		t.Error("TOA detected as flat")
	}
}
