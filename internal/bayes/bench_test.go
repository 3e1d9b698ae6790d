package bayes

import (
	"fmt"
	"testing"

	"wsnloc/internal/geom"
	"wsnloc/internal/mathx"
	"wsnloc/internal/rng"
)

// The hot kernels of grid-mode BNCL: convolution dominates run time, so its
// cost per message is tracked here across belief concentrations.

func benchGrid() *geom.Grid {
	return geom.NewGrid(geom.NewRect(0, 0, 100, 100), 40, 40)
}

func ringKernel(g *geom.Grid) *RadialKernel {
	return NewRadialKernel(g, func(d float64) float64 {
		return mathx.NormalPDF(d, 15, 1.5)
	}, 15+6, 0)
}

func BenchmarkConvolveUniformSource(b *testing.B) {
	g := benchGrid()
	k := ringKernel(g)
	src := NewUniform(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Convolve(src)
	}
}

func BenchmarkConvolveConcentratedSource(b *testing.B) {
	g := benchGrid()
	k := ringKernel(g)
	src, _ := NewFromFunc(g, func(p mathx.Vec2) float64 {
		return mathx.NormalPDF(p.Dist(mathx.V2(50, 50)), 0, 3)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Convolve(src)
	}
}

func BenchmarkBeliefProductAndNormalize(b *testing.B) {
	g := benchGrid()
	x := NewUniform(g)
	y, _ := NewFromFunc(g, func(p mathx.Vec2) float64 { return 1 + p.X })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := x.Clone()
		c.MulFloored(y, 1e-3)
		c.Normalize()
	}
}

// BenchmarkBPRound measures one steady-state grid-BP node iteration — prior
// copy, K neighbor message convolutions, product, renormalize — on the
// allocation-lean path (ConvolveInto + scratch reuse) that
// core.gridNode.recompute uses. Compare against BenchmarkBPRoundAlloc, the
// pre-pooling equivalent, to see the allocs/op the in-place ops remove.
func BenchmarkBPRound(b *testing.B) {
	g := benchGrid()
	k := ringKernel(g)
	prior := NewUniform(g)
	const neighbors = 6
	nbrs := make([]*Belief, neighbors)
	for i := range nbrs {
		src, _ := NewFromFunc(g, func(p mathx.Vec2) float64 {
			return mathx.NormalPDF(p.Dist(mathx.V2(20+float64(i)*10, 50)), 0, 4)
		})
		nbrs[i] = src
	}
	msgs := make([]*Belief, neighbors)
	for i := range msgs {
		msgs[i] = &Belief{Grid: g, W: make([]float64, g.Cells())}
	}
	post := &Belief{Grid: g, W: make([]float64, g.Cells())}
	var support []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post.CopyFrom(prior)
		for j, nb := range nbrs {
			support = k.ConvolveInto(msgs[j], nb, support)
			post.MulFloored(msgs[j], 2e-3)
			post.Normalize()
		}
	}
}

// BenchmarkBPRoundAlloc is the same iteration written the way the solver was
// before buffer pooling: every convolution and prior copy allocates a fresh
// grid-sized belief.
func BenchmarkBPRoundAlloc(b *testing.B) {
	g := benchGrid()
	k := ringKernel(g)
	prior := NewUniform(g)
	const neighbors = 6
	nbrs := make([]*Belief, neighbors)
	for i := range nbrs {
		src, _ := NewFromFunc(g, func(p mathx.Vec2) float64 {
			return mathx.NormalPDF(p.Dist(mathx.V2(20+float64(i)*10, 50)), 0, 4)
		})
		nbrs[i] = src
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post := prior.Clone()
		for _, nb := range nbrs {
			msg := k.Convolve(nb)
			post.MulFloored(msg, 2e-3)
			post.Normalize()
		}
	}
}

// BenchmarkConvMatrix is the dual-path engine's cost surface: grid size ×
// belief concentration × convolution path. "reference" is the historical
// per-offset scatter (the pre-run-compilation baseline); "sparse" the
// compiled row-run scatter; "fft" the cached-spectrum dense path; "auto" the
// dispatcher. BENCH_conv.json is generated from this matrix, and fftOpFactor
// (conv.go) is calibrated against it.
func BenchmarkConvMatrix(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		g := geom.NewGrid(geom.NewRect(0, 0, 100, 100), n, n)
		k := ringKernel(g)
		k.PrewarmSpectrum()
		diffuse, _ := NewFromFunc(g, func(p mathx.Vec2) float64 {
			return 1 + 0.1*mathx.NormalPDF(p.Dist(mathx.V2(50, 50)), 0, 30)
		})
		concentrated, _ := NewFromFunc(g, func(p mathx.Vec2) float64 {
			return mathx.NormalPDF(p.Dist(mathx.V2(50, 50)), 0, 3)
		})
		dst := &Belief{Grid: g, W: make([]float64, g.Cells())}
		sc := &ConvScratch{}
		for _, bel := range []struct {
			name string
			src  *Belief
		}{{"diffuse", diffuse}, {"concentrated", concentrated}} {
			// A BP sender scans its belief once per broadcast, so the
			// per-message cost excludes the support scan.
			support := bel.src.Support(SupportEps)
			for _, path := range []ConvPath{ConvSparse, ConvFFT, ConvAuto} {
				b.Run(fmt.Sprintf("grid=%d/belief=%s/path=%s", n, bel.name, path), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						k.ConvolveWith(dst, bel.src, support, path, sc)
					}
				})
			}
			b.Run(fmt.Sprintf("grid=%d/belief=%s/path=reference", n, bel.name), func(b *testing.B) {
				var support []int
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					support = scatterReference(k, dst, bel.src, support)
				}
			})
		}
	}
}

// BenchmarkMulFloored measures the damping-floor product with and without
// the cached-max hoist core.gridNode.recompute uses: "rescan" recomputes
// max(o) on every call, "cachedmax" supplies it precomputed.
func BenchmarkMulFloored(b *testing.B) {
	g := benchGrid()
	msg, _ := NewFromFunc(g, func(p mathx.Vec2) float64 {
		return mathx.NormalPDF(p.Dist(mathx.V2(50, 50)), 15, 3)
	})
	u := NewUniform(g)
	dst := u.Clone()
	b.Run("rescan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst.CopyFrom(u)
			dst.MulFloored(msg, 2e-3)
		}
	})
	b.Run("cachedmax", func(b *testing.B) {
		mx := msg.Max()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst.CopyFrom(u)
			dst.MulFlooredMax(msg, 2e-3, mx)
		}
	})
}

func BenchmarkKernelBuild(b *testing.B) {
	g := benchGrid()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ringKernel(g)
	}
}

func BenchmarkParticleReweightResample(b *testing.B) {
	region := geom.NewRect(0, 0, 100, 100)
	stream := rng.New(1)
	pb, _ := NewParticlesUniform(region, 150, stream)
	target := mathx.V2(40, 60)
	factor := func(x mathx.Vec2) float64 {
		return mathx.NormalPDF(x.Dist(target), 10, 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := pb.Clone()
		c.ReweightBy([]func(mathx.Vec2) float64{factor}, 1e-3)
		c.Resample(1.0, stream)
	}
}

func BenchmarkRangeMessageEval(b *testing.B) {
	stream := rng.New(2)
	pb, _ := NewParticlesUniform(geom.NewRect(0, 0, 100, 100), 150, stream)
	msg := pb.MakeRangeMessage(15, 1.5, stream)
	pt := mathx.V2(50, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg.Eval(pt)
	}
}
