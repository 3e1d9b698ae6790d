package radio

import (
	"math"
	"testing"

	"wsnloc/internal/mathx"
	"wsnloc/internal/rng"
)

func TestUnitDisk(t *testing.T) {
	u := UnitDisk{R: 10}
	a := mathx.V2(0, 0)
	if !u.Connected(a, mathx.V2(10, 0), nil) {
		t.Error("boundary not connected")
	}
	if u.Connected(a, mathx.V2(10.01, 0), nil) {
		t.Error("beyond range connected")
	}
	if u.PRR(5) != 1 || u.PRR(20) != 0 {
		t.Error("PRR plateau/floor wrong")
	}
	if u.MaxRange() < 10 {
		t.Error("MaxRange below R")
	}
}

func TestPRRMonotoneNonIncreasing(t *testing.T) {
	models := map[string]Propagation{
		"unitdisk": UnitDisk{R: 10},
		"qudg":     QuasiUDG{RMin: 7, RMax: 13},
		"shadow":   LogNormalShadow{R: 10, Eta: 3, SigmaDB: 4},
		"doi":      DOI{R: 10, DOI: 0.1},
	}
	for name, m := range models {
		prev := math.Inf(1)
		for d := 0.1; d < 30; d += 0.1 {
			p := m.PRR(d)
			if p < 0 || p > 1 {
				t.Fatalf("%s: PRR(%v) = %v out of [0,1]", name, d, p)
			}
			if p > prev+1e-12 {
				t.Fatalf("%s: PRR increased at d=%v", name, d)
			}
			prev = p
		}
		if m.PRR(m.MaxRange()+0.01) > 1e-3 {
			t.Errorf("%s: PRR beyond MaxRange = %v", name, m.PRR(m.MaxRange()+0.01))
		}
	}
}

// TestPRRZeroFromMaxRange pins the MaxRange contract every model must keep:
// PRR is exactly 0 at MaxRange and everywhere beyond it. BNCL's windowed
// negative-evidence product is bit-identical to the full-grid one only
// because of it.
func TestPRRZeroFromMaxRange(t *testing.T) {
	for _, r := range []float64{1, 7.3, 10, 15, 33.3, 100} {
		for name, m := range map[string]Propagation{
			"unitdisk":      UnitDisk{R: r},
			"qudg":          QuasiUDG{RMin: 0.7 * r, RMax: 1.1 * r},
			"shadow":        LogNormalShadow{R: r, Eta: 3, SigmaDB: 4},
			"shadow-sigma0": LogNormalShadow{R: r, Eta: 3},
			"doi":           DOI{R: r, DOI: 0.01},
			"doi-capped":    DOI{R: r, DOI: 0.1},
		} {
			mr := m.MaxRange()
			for _, d := range []float64{mr, math.Nextafter(mr, math.Inf(1)), 1.5 * mr, 10 * mr} {
				if p := m.PRR(d); p != 0 {
					t.Errorf("%s R=%v (MaxRange %v): PRR(%v) = %v, want exactly 0", name, r, mr, d, p)
				}
			}
		}
	}
}

func TestQuasiUDG(t *testing.T) {
	q := QuasiUDG{RMin: 5, RMax: 15}
	stream := rng.New(1)
	a := mathx.V2(0, 0)
	if !q.Connected(a, mathx.V2(4, 0), stream) {
		t.Error("inside RMin not connected")
	}
	if q.Connected(a, mathx.V2(16, 0), stream) {
		t.Error("beyond RMax connected")
	}
	// Midpoint should connect ~50% of the time.
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if q.Connected(a, mathx.V2(10, 0), stream) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.5) > 0.02 {
		t.Errorf("mid-zone connection rate = %v", p)
	}
}

func TestLogNormalShadow(t *testing.T) {
	l := LogNormalShadow{R: 10, Eta: 3, SigmaDB: 4}
	// At the median range, PRR must be 0.5.
	if p := l.PRR(10); !mathx.AlmostEqual(p, 0.5, 1e-9) {
		t.Errorf("PRR(R) = %v", p)
	}
	// Close in, almost certain; far out, almost never.
	if l.PRR(3) < 0.99 {
		t.Errorf("PRR(3) = %v", l.PRR(3))
	}
	if l.PRR(30) > 0.01 {
		t.Errorf("PRR(30) = %v", l.PRR(30))
	}
	// Empirical connection rate at distance d matches PRR(d).
	stream := rng.New(2)
	a, b := mathx.V2(0, 0), mathx.V2(12, 0)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if l.Connected(a, b, stream) {
			hits++
		}
	}
	want := l.PRR(12)
	if got := float64(hits) / n; math.Abs(got-want) > 0.02 {
		t.Errorf("empirical PRR = %v, analytic %v", got, want)
	}
	// Zero-sigma degenerates to unit disk.
	hard := LogNormalShadow{R: 10, Eta: 3, SigmaDB: 0}
	if hard.PRR(9.9) != 1 || hard.PRR(10.1) != 0 {
		t.Error("zero-sigma shadowing not a step")
	}
	if hard.MaxRange() != 10 {
		t.Error("zero-sigma MaxRange wrong")
	}
}

func TestDOISymmetricAndBounded(t *testing.T) {
	m := DOI{R: 10, DOI: 0.1}
	stream := rng.New(3)
	for i := 0; i < 500; i++ {
		a := mathx.V2(stream.Uniform(0, 100), stream.Uniform(0, 100))
		b := mathx.V2(stream.Uniform(0, 100), stream.Uniform(0, 100))
		if m.Connected(a, b, nil) != m.Connected(b, a, nil) {
			t.Fatalf("asymmetric connectivity for %v—%v", a, b)
		}
	}
	// Within the guaranteed inner disk, always connected.
	k := math.Min(19*0.1, 0.4)
	inner := 10 * (1 - k)
	if !m.Connected(mathx.V2(0, 0), mathx.V2(inner*0.99, 0), nil) {
		t.Error("inner disk not connected")
	}
	// Beyond the outer bound, never connected.
	outer := 10 * (1 + k)
	if m.Connected(mathx.V2(0, 0), mathx.V2(outer*1.01, 0), nil) {
		t.Error("outside outer bound connected")
	}
	// DOI=0 degenerates to unit disk.
	u := DOI{R: 10, DOI: 0}
	if !u.Connected(mathx.V2(0, 0), mathx.V2(10, 0), nil) || u.Connected(mathx.V2(0, 0), mathx.V2(10.01, 0), nil) {
		t.Error("DOI=0 is not a unit disk")
	}
}
