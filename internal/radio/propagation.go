// Package radio models wireless propagation and ranging for the wsnloc
// simulator. The ICPP-2007-era evaluation testbeds this library substitutes
// for used CC1000/CC2420-class radios; per the reproduction's substitution
// rule we model them with the standard analytical families of that
// literature:
//
//   - Unit disk: perfect connectivity within range R (the textbook model).
//   - Quasi-UDG and DOI: irregular connectivity regions.
//   - Log-normal shadowing: probabilistic connectivity with dB-scale noise.
//
// Propagation models answer "are nodes i and j connected, and with what
// packet-reception rate?"; ranging models (ranging.go) answer "what distance
// estimate does a connected pair measure, and what is its likelihood?".
package radio

import (
	"math"

	"wsnloc/internal/mathx"
	"wsnloc/internal/rng"
)

// Propagation decides link existence between node positions. Implementations
// must be deterministic given the same Stream state, so topologies are
// reproducible.
type Propagation interface {
	// Connected reports whether a link exists from a to b. Models with
	// random components draw from stream; deterministic models ignore it.
	// Connectivity is symmetric: implementations must return the same value
	// for (a, b) and (b, a) given equivalent stream state, and the topology
	// builder only evaluates each unordered pair once.
	Connected(a, b mathx.Vec2, stream *rng.Stream) bool
	// PRR returns the long-run packet reception rate at distance d, in
	// [0, 1]. It is the smooth curve behind Connected and doubles as the
	// negative-evidence likelihood P(link | distance) in the Bayesian model.
	PRR(d float64) float64
	// MaxRange returns the distance from which PRR is exactly zero:
	// PRR(d) == 0 for every d >= MaxRange(). The topology builder uses it to
	// prune the candidate-pair search, and BNCL to window its
	// negative-evidence factors, which are exactly 1 where PRR is 0.
	MaxRange() float64
}

// UnitDisk is the classical binary disk model: connected iff distance ≤ R.
type UnitDisk struct {
	R float64
}

// Connected implements Propagation.
func (u UnitDisk) Connected(a, b mathx.Vec2, _ *rng.Stream) bool {
	return a.Dist2(b) <= u.R*u.R
}

// PRR implements Propagation: a step function at R. A narrow linear ramp
// (2% of R) keeps the negative-evidence potential Lipschitz so grid-based
// inference does not alias.
func (u UnitDisk) PRR(d float64) float64 {
	edge := 0.02 * u.R
	switch {
	case d >= u.R+edge:
		return 0
	case d <= u.R-edge:
		return 1
	default:
		return (u.R + edge - d) / (2 * edge)
	}
}

// MaxRange implements Propagation.
func (u UnitDisk) MaxRange() float64 { return u.R * 1.02 }

// QuasiUDG connects pairs closer than RMin always, farther than RMax never,
// and in between with probability falling linearly — the standard
// quasi-unit-disk graph.
type QuasiUDG struct {
	RMin, RMax float64
}

// Connected implements Propagation.
func (q QuasiUDG) Connected(a, b mathx.Vec2, stream *rng.Stream) bool {
	d := a.Dist(b)
	p := q.PRR(d)
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	return stream.Bool(p)
}

// PRR implements Propagation.
func (q QuasiUDG) PRR(d float64) float64 {
	switch {
	case d >= q.RMax:
		return 0
	case d <= q.RMin:
		return 1
	default:
		return (q.RMax - d) / (q.RMax - q.RMin)
	}
}

// MaxRange implements Propagation.
func (q QuasiUDG) MaxRange() float64 { return q.RMax }

// LogNormalShadow is log-normal shadowing: received power at distance d is
// P(d) = P₀ − 10·η·log₁₀(d/d₀) + X, X ~ N(0, σdB²); a link exists when the
// power clears the receiver threshold. R is the nominal (median) range — the
// distance at which the mean power equals the threshold.
type LogNormalShadow struct {
	R       float64 // median connectivity range
	Eta     float64 // path-loss exponent (2 free space … 4 indoor)
	SigmaDB float64 // shadowing standard deviation in dB
}

// marginDB returns the mean link margin in dB at distance d (positive inside
// the nominal range).
func (l LogNormalShadow) marginDB(d float64) float64 {
	if d <= 0 {
		return math.Inf(1)
	}
	return -10 * l.Eta * math.Log10(d/l.R)
}

// Connected implements Propagation: the shadowing term is drawn per pair.
func (l LogNormalShadow) Connected(a, b mathx.Vec2, stream *rng.Stream) bool {
	d := a.Dist(b)
	if d == 0 {
		return true
	}
	x := stream.Normal(0, l.SigmaDB)
	return l.marginDB(d)+x >= 0
}

// PRR implements Propagation: P(margin + X ≥ 0) = Φ(margin/σ), truncated to
// 0 from MaxRange on — the ≈10⁻³ tail there is the probability of a link the
// topology builder never forms.
func (l LogNormalShadow) PRR(d float64) float64 {
	switch {
	case d >= l.MaxRange():
		return 0
	case l.SigmaDB <= 0:
		return 1
	}
	return mathx.NormalCDF(l.marginDB(d), 0, l.SigmaDB)
}

// MaxRange implements Propagation: the distance at which the untruncated
// PRR falls to 10⁻³ (about 3.1σ of margin).
func (l LogNormalShadow) MaxRange() float64 {
	if l.SigmaDB <= 0 {
		return l.R
	}
	// margin(d) = −3.1σ  ⇒  d = R·10^(3.1σ / (10η)).
	return l.R * math.Pow(10, 3.1*l.SigmaDB/(10*l.Eta))
}

// DOI is the "degree of irregularity" model: the effective range varies with
// the bearing from transmitter to receiver by up to ±DOI·R per degree of
// angular change, producing a jagged star-shaped coverage region. The
// per-node irregularity pattern is deterministic in the node's position so
// that connectivity remains symmetric and reproducible.
type DOI struct {
	R   float64 // nominal range
	DOI float64 // per-degree range variation coefficient (0 = unit disk)
}

// rangeAt returns the effective range for an (unordered) pair, derived from
// a hash of the pair's midpoint so both directions agree.
func (m DOI) rangeAt(a, b mathx.Vec2) float64 {
	if m.DOI <= 0 {
		return m.R
	}
	mid := a.Add(b).Scale(0.5)
	bearing := b.Sub(a).Angle()
	if bearing < 0 {
		bearing += math.Pi // fold so (a,b) and (b,a) agree
	}
	// Deterministic pseudo-noise from midpoint and bearing sector.
	sector := math.Floor(bearing / (math.Pi / 180)) // 1-degree sectors
	h := math.Sin(mid.X*12.9898+mid.Y*78.233+sector*0.01745) * 43758.5453
	u := h - math.Floor(h) // in [0,1)
	// Range varies within [R·(1−k), R·(1+k)] where k grows with DOI. The
	// classical model accumulates ±DOI per degree; a random walk over 360
	// degrees has spread ≈ DOI·√360 ≈ 19·DOI, which we cap at 40%.
	k := math.Min(19*m.DOI, 0.4)
	return m.R * (1 - k + 2*k*u)
}

// Connected implements Propagation.
func (m DOI) Connected(a, b mathx.Vec2, _ *rng.Stream) bool {
	r := m.rangeAt(a, b)
	return a.Dist2(b) <= r*r
}

// PRR implements Propagation: marginalizing the uniform range perturbation
// gives a linear ramp between R·(1−k) and R·(1+k).
func (m DOI) PRR(d float64) float64 {
	k := math.Min(19*m.DOI, 0.4)
	lo, hi := m.R*(1-k), m.R*(1+k)
	switch {
	case d >= hi:
		return 0
	case d <= lo:
		return 1
	default:
		return (hi - d) / (hi - lo)
	}
}

// MaxRange implements Propagation.
func (m DOI) MaxRange() float64 {
	k := math.Min(19*m.DOI, 0.4)
	return m.R * (1 + k)
}
