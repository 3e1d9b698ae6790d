package bayes

import (
	"fmt"
	"math"
	"sync"

	"wsnloc/internal/mathx"
)

// Dual-path message convolution. The sparse path (kernel.go) scatters the
// compiled kernel rows from the source support — cheap once beliefs
// concentrate. The dense path below multiplies cached kernel spectra in the
// Fourier domain — cost independent of support, so it wins in the early BP
// rounds when every prior is still diffuse. ConvAuto picks per message from
// an operation-count model whose inputs depend only on the message itself,
// never on timing or worker count, keeping runs bit-identical across
// parallelism settings (the PR 2 invariant).

// ConvPath selects the convolution implementation for kernel messages.
type ConvPath int

const (
	// ConvAuto dispatches per message between the sparse and FFT paths via
	// the deterministic cost model (the default).
	ConvAuto ConvPath = iota
	// ConvSparse forces the compiled row-run scatter.
	ConvSparse
	// ConvFFT forces the cached-spectrum dense path.
	ConvFFT
)

// String returns the canonical spelling ("auto", "sparse", "fft").
func (p ConvPath) String() string {
	switch p {
	case ConvSparse:
		return "sparse"
	case ConvFFT:
		return "fft"
	default:
		return "auto"
	}
}

// ParseConvPath parses a convolution-path name. The empty string is accepted
// as "auto" so zero-valued configuration knobs stay terse.
func ParseConvPath(s string) (ConvPath, error) {
	switch s {
	case "", "auto":
		return ConvAuto, nil
	case "sparse":
		return ConvSparse, nil
	case "fft":
		return ConvFFT, nil
	}
	return ConvAuto, fmt.Errorf("bayes: unknown convolution path %q (want auto|sparse|fft)", s)
}

// Valid reports whether p is one of the three defined paths.
func (p ConvPath) Valid() bool { return p >= ConvAuto && p <= ConvFFT }

// ConvScratch carries one caller's reusable convolution buffers: the complex
// workspace of the FFT path. The zero value is ready to use; a scratch must
// not be shared between goroutines.
type ConvScratch struct {
	buf []complex128
}

// spectrumCache lazily holds a kernel's padded 2-D spectrum. Build-once
// semantics make concurrent first use race-free and deterministic.
type spectrumCache struct {
	once sync.Once
	px   int // padded width  (power of two ≥ NX + max(maxDi, −minDi))
	py   int // padded height (power of two ≥ NY + max(maxDj, −minDj))
	f    []complex128
}

// spectrum returns the kernel's padded spectrum, building it on first use.
func (k *RadialKernel) spectrum() *spectrumCache {
	k.spec.once.Do(func() {
		g := k.grid
		exI := k.maxDi
		if -k.minDi > exI {
			exI = -k.minDi
		}
		exJ := k.maxDj
		if -k.minDj > exJ {
			exJ = -k.minDj
		}
		// px > NX−1+|di| for every kernel offset di kills circular aliasing
		// on the read-back window [0, NX) (same along Y), so the dense result
		// equals the border-clipped linear convolution exactly.
		px := mathx.NextPow2(g.NX + exI)
		py := mathx.NextPow2(g.NY + exJ)
		f := make([]complex128, px*py)
		for _, o := range k.offs {
			i := (o.di + px) % px
			j := (o.dj + py) % py
			f[j*px+i] += complex(o.w, 0)
		}
		mathx.FFT2D(f, px, py, false)
		k.spec.px, k.spec.py, k.spec.f = px, py, f
	})
	return &k.spec
}

// PrewarmSpectrum builds the kernel's FFT spectrum eagerly, so a concurrent
// BP phase runs against read-only spectra (mirrors the kernel prewarm in
// internal/core).
func (k *RadialKernel) PrewarmSpectrum() { k.spectrum() }

// ConvolveFFTInto computes the unnormalized message k ⊗ src into dst on the
// dense path: zero-pad, transform, multiply the cached kernel spectrum,
// transform back. The transform always spans the whole grid, whatever the
// source's window, and dst is re-windowed to the whole grid: rounding
// leaves tiny weights everywhere. Negative ones are clamped to zero so
// downstream products stay valid densities. sc may be nil (the call then
// allocates its workspace).
func (k *RadialKernel) ConvolveFFTInto(dst, src *Belief, sc *ConvScratch) {
	k.checkPair(dst, src)
	sp := k.spectrum()
	n := sp.px * sp.py
	var buf []complex128
	if sc != nil {
		if cap(sc.buf) < n {
			sc.buf = make([]complex128, n)
		}
		buf = sc.buf[:n]
	} else {
		buf = make([]complex128, n)
	}
	g := k.grid
	for i := range buf {
		buf[i] = 0
	}
	sw := src.Window()
	for r := 0; r < sw.NY; r++ {
		row := src.W[r*sw.NX : (r+1)*sw.NX]
		out := buf[(sw.J0+r)*sp.px+sw.I0:]
		for i, w := range row {
			out[i] = complex(w, 0)
		}
	}
	mathx.FFT2D(buf, sp.px, sp.py, false)
	for i := range buf {
		buf[i] *= sp.f[i]
	}
	mathx.FFT2D(buf, sp.px, sp.py, true)
	dst.reshape(fullWindow(g))
	for j := 0; j < g.NY; j++ {
		row := dst.W[j*g.NX : (j+1)*g.NX]
		in := buf[j*sp.px:]
		for i := range row {
			w := real(in[i])
			if w < 0 {
				w = 0
			}
			row[i] = w
		}
	}
}

// fftOpFactor scales the FFT path's G·log₂G term onto the sparse path's
// per-offset multiply-add scale: two complex 2-D transforms plus the spectrum
// product cost roughly this many sparse-equivalent operations per padded
// cell and log₂ level. Calibrated against the convolution benchmark matrix
// (BenchmarkConvMatrix, amd64): 4.0 keeps every matrix cell on its faster
// side — below ~3 the dense path steals the 32×32-diffuse and
// 128×128-concentrated cells where the compiled scatter still wins, above
// ~10 it loses the 64×64-diffuse cell where it is 1.5× ahead. The exact
// value only moves the crossover, never correctness or determinism.
const fftOpFactor = 4.0

// ChoosePath returns the cheaper path for a source with the given support
// size. The decision is a pure function of (supportSize, kernel, grid) — no
// timing, no worker count — so dispatch is deterministic and results stay
// bit-identical across parallelism settings.
func (k *RadialKernel) ChoosePath(supportSize int) ConvPath {
	sp := k.spectrum()
	n := float64(sp.px * sp.py)
	fftOps := fftOpFactor * n * math.Log2(n)
	sparseOps := float64(supportSize) * float64(len(k.offs))
	if sparseOps <= fftOps {
		return ConvSparse
	}
	return ConvFFT
}

// ConvolveWith computes k ⊗ src into dst on the requested path, dispatching
// ConvAuto through ChoosePath, and returns the path actually used. support
// must be src.Support(SupportEps): a BP sender scans its belief once and
// ships the result, so every receiver dispatches and scatters from the same
// slice instead of rescanning its belief. dst is re-windowed to the
// message's extent: the support grown by the kernel on the sparse path, the
// whole grid on the FFT path. sc may be nil; passing one (and a dst whose
// buffer has grown to the largest extent) makes steady-state calls
// allocation-free on both paths.
func (k *RadialKernel) ConvolveWith(dst, src *Belief, support []int, path ConvPath, sc *ConvScratch) ConvPath {
	if path == ConvAuto {
		path = k.ChoosePath(len(support))
	}
	if path == ConvFFT {
		k.ConvolveFFTInto(dst, src, sc)
		return ConvFFT
	}
	k.convolveSupport(dst, src, support)
	return ConvSparse
}
