package bayes

import (
	"math"
	"strings"
	"testing"

	"wsnloc/internal/geom"
	"wsnloc/internal/mathx"
	"wsnloc/internal/rng"
)

// scatterReference is the historical per-offset scatter ConvolveInto
// implemented before the row-run compilation — the bit-identity baseline for
// the compiled sparse path, and the "current sparse scatter" side of the
// speedup benchmarks.
func scatterReference(k *RadialKernel, dst, src *Belief, support []int) []int {
	g := k.grid
	for i := range dst.W {
		dst.W[i] = 0
	}
	support = src.AppendSupport(support[:0], SupportEps)
	for _, sIdx := range support {
		ws := src.At(sIdx)
		si, sj := g.Coords(sIdx)
		for _, o := range k.offs {
			ti := si + o.di
			if ti < 0 || ti >= g.NX {
				continue
			}
			tj := sj + o.dj
			if tj < 0 || tj >= g.NY {
				continue
			}
			dst.W[tj*g.NX+ti] += ws * o.w
		}
	}
	return support
}

// randomBelief returns a normalized belief with strictly positive random
// weights plus a few concentrated spikes, so both diffuse mass and sharp
// peaks are exercised.
func randomBelief(g *geom.Grid, stream *rng.Stream) *Belief {
	b := &Belief{Grid: g, W: make([]float64, g.Cells())}
	for i := range b.W {
		b.W[i] = 1e-6 + stream.Float64()
	}
	for s := 0; s < 3; s++ {
		b.W[int(stream.Uint64()%uint64(g.Cells()))] += 50 * stream.Float64()
	}
	if !b.Normalize() {
		panic("random belief has zero mass")
	}
	return b
}

// TestCompiledScatterBitIdentical pins the tentpole's reproducibility
// contract: the row-run compiled sparse path must produce byte-for-byte the
// floats of the historical per-offset scatter, interior and border sources
// alike.
func TestCompiledScatterBitIdentical(t *testing.T) {
	stream := rng.New(41)
	for _, n := range []int{17, 40} {
		g := geom.NewGrid(geom.NewRect(0, 0, 100, 100), n, n)
		k := ringKernel(g)
		for trial := 0; trial < 5; trial++ {
			src := randomBelief(g, stream)
			got := &Belief{Grid: g, W: make([]float64, g.Cells())}
			want := &Belief{Grid: g, W: make([]float64, g.Cells())}
			k.ConvolveInto(got, src, nil)
			scatterReference(k, want, src, nil)
			for i := range want.W {
				if got.At(i) != want.W[i] {
					t.Fatalf("n=%d trial %d: cell %d differs: %v vs %v (bit-level)",
						n, trial, i, got.At(i), want.W[i])
				}
			}
		}
		// A border delta exercises the clipped path specifically.
		src := NewDelta(g, mathx.V2(0.5, 0.5))
		got := &Belief{Grid: g, W: make([]float64, g.Cells())}
		want := &Belief{Grid: g, W: make([]float64, g.Cells())}
		k.ConvolveInto(got, src, nil)
		scatterReference(k, want, src, nil)
		for i := range want.W {
			if got.At(i) != want.W[i] {
				t.Fatalf("n=%d border delta: cell %d differs", n, i)
			}
		}
	}
}

// TestFFTAgreesWithDirect is the acceptance check of the dense path: FFT
// convolution within 1e-9 relative tolerance of the direct (sparse) result,
// cell by cell, relative to the message maximum.
func TestFFTAgreesWithDirect(t *testing.T) {
	stream := rng.New(42)
	for _, n := range []int{20, 40, 64} {
		g := geom.NewGrid(geom.NewRect(0, 0, 100, 100), n, n)
		k := ringKernel(g)
		for trial := 0; trial < 3; trial++ {
			src := randomBelief(g, stream)
			direct := &Belief{Grid: g, W: make([]float64, g.Cells())}
			// The reference uses the full source, not just its support, so
			// the comparison isn't polluted by support-trim mass loss.
			scatterReference(k, direct, src, nil)
			fft := &Belief{Grid: g, W: make([]float64, g.Cells())}
			k.ConvolveFFTInto(fft, src, nil)
			mx := direct.Max()
			if mx <= 0 {
				t.Fatal("degenerate direct message")
			}
			for i := range fft.W {
				if rel := math.Abs(fft.W[i]-direct.W[i]) / mx; rel > 1e-9 {
					t.Fatalf("n=%d trial %d cell %d: |fft-direct|/max = %g > 1e-9",
						n, trial, i, rel)
				}
			}
		}
	}
}

// TestFFTDeterministic: the dense path must be bit-identical across repeated
// calls and across fresh kernels (spectrum rebuilds).
func TestFFTDeterministic(t *testing.T) {
	g := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 40, 40)
	src := randomBelief(g, rng.New(7))
	a := &Belief{Grid: g, W: make([]float64, g.Cells())}
	b := &Belief{Grid: g, W: make([]float64, g.Cells())}
	k1 := ringKernel(g)
	k2 := ringKernel(g)
	k1.ConvolveFFTInto(a, src, nil)
	k2.ConvolveFFTInto(b, src, &ConvScratch{})
	for i := range a.W {
		if a.W[i] != b.W[i] {
			t.Fatalf("cell %d differs across kernels/scratch: %v vs %v", i, a.W[i], b.W[i])
		}
	}
}

// TestChoosePathMonotone: the dispatcher is a pure function of support size —
// sparse for concentrated sources, FFT beyond a single crossover.
func TestChoosePathMonotone(t *testing.T) {
	g := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 64, 64)
	k := ringKernel(g)
	if p := k.ChoosePath(1); p != ConvSparse {
		t.Errorf("support 1 chose %v, want sparse", p)
	}
	if p := k.ChoosePath(g.Cells()); p != ConvFFT {
		t.Errorf("full support on 64x64 chose %v, want fft", p)
	}
	prev := ConvSparse
	for s := 1; s <= g.Cells(); s += 64 {
		p := k.ChoosePath(s)
		if prev == ConvFFT && p == ConvSparse {
			t.Fatalf("dispatch not monotone at support %d", s)
		}
		prev = p
	}
}

func TestConvolveWithDispatch(t *testing.T) {
	g := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 64, 64)
	k := ringKernel(g)
	sc := &ConvScratch{}
	dst := &Belief{Grid: g, W: make([]float64, g.Cells())}

	diffuse := NewUniform(g)
	if used := k.ConvolveWith(dst, diffuse, diffuse.Support(SupportEps), ConvAuto, sc); used != ConvFFT {
		t.Errorf("diffuse source dispatched to %v, want fft", used)
	}
	conc := NewDelta(g, mathx.V2(50, 50))
	if used := k.ConvolveWith(dst, conc, conc.Support(SupportEps), ConvAuto, sc); used != ConvSparse {
		t.Errorf("delta source dispatched to %v, want sparse", used)
	}
	// Forced paths are honored regardless of the cost model.
	if used := k.ConvolveWith(dst, diffuse, diffuse.Support(SupportEps), ConvSparse, sc); used != ConvSparse {
		t.Errorf("forced sparse ran %v", used)
	}
	if used := k.ConvolveWith(dst, conc, conc.Support(SupportEps), ConvFFT, sc); used != ConvFFT {
		t.Errorf("forced fft ran %v", used)
	}
}

// TestConvolveWithPathsAgree: the two paths the dispatcher switches between
// describe the same message up to FFT rounding.
func TestConvolveWithPathsAgree(t *testing.T) {
	g := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 32, 32)
	k := ringKernel(g)
	src := randomBelief(g, rng.New(5))
	sp := &Belief{Grid: g, W: make([]float64, g.Cells())}
	ff := &Belief{Grid: g, W: make([]float64, g.Cells())}
	support := src.Support(SupportEps)
	k.ConvolveWith(sp, src, support, ConvSparse, nil)
	k.ConvolveWith(ff, src, support, ConvFFT, nil)
	sp.Normalize()
	ff.Normalize()
	if d := sp.L1Diff(ff); d > 1e-6 {
		t.Errorf("paths diverge by L1 %g", d)
	}
}

func TestConvPathParseAndString(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want ConvPath
	}{{"", ConvAuto}, {"auto", ConvAuto}, {"sparse", ConvSparse}, {"fft", ConvFFT}} {
		got, err := ParseConvPath(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseConvPath(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseConvPath("simd"); err == nil || !strings.Contains(err.Error(), "simd") {
		t.Errorf("bad path error = %v", err)
	}
	for _, p := range []ConvPath{ConvAuto, ConvSparse, ConvFFT} {
		rt, err := ParseConvPath(p.String())
		if err != nil || rt != p {
			t.Errorf("round trip of %v failed: %v, %v", p, rt, err)
		}
		if !p.Valid() {
			t.Errorf("%v reported invalid", p)
		}
	}
	if ConvPath(9).Valid() {
		t.Error("out-of-range path reported valid")
	}
}

// TestConvolveEmptyBufferPanics is the regression test for the empty-weight
// guard: a zero-cell belief must fail with the explicit message, not an index
// panic from the alias check.
func TestConvolveEmptyBufferPanics(t *testing.T) {
	g := geom.NewGrid(geom.NewRect(0, 0, 10, 10), 5, 5)
	k := ringKernel(g)
	check := func(name string, dst, src *Belief) {
		t.Helper()
		defer func() {
			r := recover()
			s, ok := r.(string)
			if !ok || !strings.Contains(s, "empty weight buffer") {
				t.Errorf("%s: panic = %v, want empty-weight message", name, r)
			}
		}()
		k.ConvolveInto(dst, src, nil)
	}
	empty := &Belief{Grid: g}
	full := NewUniform(g)
	check("empty dst", empty, full)
	check("empty src", &Belief{Grid: g, W: make([]float64, g.Cells())}, empty)
}

func TestKernelRunsCoverOffsets(t *testing.T) {
	g := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 40, 40)
	k := ringKernel(g)
	total := 0
	for _, r := range k.runs {
		total += len(r.w)
	}
	if total != k.Size() {
		t.Errorf("runs cover %d weights, kernel has %d offsets", total, k.Size())
	}
	if k.Runs() == 0 || k.Runs() > k.Size() {
		t.Errorf("suspicious run count %d for %d offsets", k.Runs(), k.Size())
	}
}
