package core

import (
	"math"

	"wsnloc/internal/bayes"
	"wsnloc/internal/geom"
	"wsnloc/internal/mathx"
)

// PreKnowledge selects which prior information BNCL folds into the unary
// potentials. Everything here is available *before* any ranging — that is
// the paper's titular idea: deployment-time knowledge constrains the
// Bayesian network enough that sparse anchors and noisy ranging still yield
// accurate posteriors.
type PreKnowledge struct {
	// UseRegion zeroes prior mass outside the deployment region (the map of
	// the field, including obstacle holes).
	UseRegion bool `json:"use_region,omitempty"`
	// DeployDensity, if non-nil, is the relative deployment density over the
	// plane (e.g. heavier along a flight line). Evaluated only inside the
	// region when UseRegion is set. Excluded from JSON: function-valued
	// pre-knowledge cannot ride in a serialized Spec.
	DeployDensity func(mathx.Vec2) float64 `json:"-"`
	// UseHopAnnuli constrains each node to the annulus implied by its hop
	// count to each anchor: after h hops the distance is at most h·R and
	// (softly) at least (h−1)·R·HopGamma.
	UseHopAnnuli bool `json:"use_hop_annuli,omitempty"`
	// HopGamma scales the soft lower bound of the hop annulus; the expected
	// per-hop progress of greedy flooding is ≈ 0.7·R in dense networks.
	// Zero means the 0.5 default.
	HopGamma float64 `json:"hop_gamma,omitempty"`
	// UseNegativeEvidence applies "no link ⇒ probably far" potentials
	// between two-hop neighbor pairs.
	UseNegativeEvidence bool `json:"use_negative_evidence,omitempty"`
	// MaxAnnuliAnchors caps how many anchors contribute annulus priors;
	// zero means the default of 16. Selection takes the nearest half and
	// the farthest half of the hop table: near anchors carry tight upper
	// bounds, far anchors carry the lower bounds that break mirror
	// symmetries (without them, peripheral clusters can coherently lock
	// into a reflected mode).
	MaxAnnuliAnchors int `json:"max_annuli_anchors,omitempty"`
}

// AllPreKnowledge enables every pre-knowledge term with default parameters.
func AllPreKnowledge() PreKnowledge {
	return PreKnowledge{
		UseRegion:           true,
		UseHopAnnuli:        true,
		UseNegativeEvidence: true,
	}
}

// NoPreKnowledge disables every term — the ablation baseline. (The grid
// itself still spans the deployment bounding box: some spatial extent is
// unavoidable in any discretization.)
func NoPreKnowledge() PreKnowledge { return PreKnowledge{} }

func (pk PreKnowledge) hopGamma() float64 {
	if pk.HopGamma <= 0 {
		return 0.5
	}
	return pk.HopGamma
}

func (pk PreKnowledge) maxAnnuli() int {
	if pk.MaxAnnuliAnchors <= 0 {
		return 16
	}
	return pk.MaxAnnuliAnchors
}

// selectAnnuli picks which hop-table entries (sorted nearest-first)
// contribute annulus factors: the nearest half and the farthest half of the
// budget.
func selectAnnuli(sorted []anchorHop, budget int) []anchorHop {
	if len(sorted) <= budget {
		return sorted
	}
	nearN := (budget + 1) / 2
	farN := budget - nearN
	out := make([]anchorHop, 0, budget)
	out = append(out, sorted[:nearN]...)
	out = append(out, sorted[len(sorted)-farN:]...)
	return out
}

// anchorHop is one entry of a node's hop table: the id and position of an
// anchor and the hop distance to it.
type anchorHop struct {
	id   int
	pos  mathx.Vec2
	hops int
}

// distTable returns the distance from every cell center of g to p, indexed
// by flat cell index — the argument of p's annulus factors on g.
func distTable(g *geom.Grid, p mathx.Vec2) []float64 {
	d := make([]float64, g.Cells())
	for idx := range d {
		d[idx] = g.CenterIdx(idx).Dist(p)
	}
	return d
}

// buildPrior assembles the unary prior belief for one unknown node on g:
// region mask × deployment density × hop annuli. It never returns a
// zero-mass belief: if the constraints annihilate each other (possible with
// inconsistent hop counts under packet loss), it falls back to the region
// prior, then to uniform.
//
// rUp is the per-hop distance upper bound: the longest link the propagation
// model can form (Propagation.MaxRange), NOT the median range — under
// shadowing, links longer than R exist and a bound of h·R would contradict
// the evidence. rLo is the per-hop soft lower bound (gamma·R).
//
// dist returns an anchor's distance table on g (see distTable), so tables
// built once per run are shared by every node; nil builds them per call.
// The prior spans the whole grid: each annulus is normalized over every
// cell.
func (pk PreKnowledge) buildPrior(g *geom.Grid, region geom.Region, hopTable []anchorHop, rUp, rLo float64, dist func(anchorHop) []float64) *bayes.Belief {
	prior := bayes.NewUniform(g)
	if pk.UseRegion && region != nil {
		prior.MulFunc(func(p mathx.Vec2) float64 {
			if !region.Contains(p) {
				return 0
			}
			if pk.DeployDensity != nil {
				return pk.DeployDensity(p)
			}
			return 1
		})
		if !prior.Normalize() {
			prior = bayes.NewUniform(g)
		}
	} else if pk.DeployDensity != nil {
		prior.MulFunc(pk.DeployDensity)
		if !prior.Normalize() {
			prior = bayes.NewUniform(g)
		}
	}

	if pk.UseHopAnnuli && len(hopTable) > 0 {
		regionPrior := prior.Clone()
		for _, ah := range selectAnnuli(hopTable, pk.maxAnnuli()) {
			var d []float64
			if dist != nil {
				d = dist(ah)
			} else {
				d = distTable(g, ah.pos)
			}
			prior.MulFuncOf(d, annulusOfDist(ah.hops, rUp, rLo))
			if !prior.Normalize() {
				// Inconsistent hop info: drop annuli, keep region prior.
				prior = regionPrior
				break
			}
		}
	}
	return prior
}

// annulusFactor is the soft indicator that a node h hops from an anchor at
// a lies in the annulus (h−1)·rLo < ‖x−a‖ ≤ h·rUp. The upper bound is hard
// (hop-count paths cannot stretch beyond the longest possible link), the
// lower bound soft (greedy floods can make slow progress). Edges are
// smoothed over 10% of rUp so grid aliasing does not carve the posterior.
func annulusFactor(a mathx.Vec2, hops int, rUp, rLo float64) func(mathx.Vec2) float64 {
	f := annulusOfDist(hops, rUp, rLo)
	return func(x mathx.Vec2) float64 { return f(x.Dist(a)) }
}

// annulusOfDist is annulusFactor as a function of the distance d = ‖x−a‖.
func annulusOfDist(hops int, rUp, rLo float64) func(float64) float64 {
	upper := float64(hops) * rUp
	lower := float64(hops-1) * rLo
	soft := 0.1 * rUp
	return func(d float64) float64 {
		// Hard-ish upper bound with smoothed edge.
		var up float64
		switch {
		case d <= upper:
			up = 1
		case d >= upper+soft:
			up = 1e-6
		default:
			up = 1 - (1-1e-6)*(d-upper)/soft
		}
		// Soft lower bound: being much closer than (h−1)·γ·R is unlikely
		// but not impossible; floor at 0.05.
		var lo float64
		switch {
		case d >= lower:
			lo = 1
		case d <= lower-soft:
			lo = 0.05
		default:
			lo = 0.05 + 0.95*(1-(lower-d)/soft)
		}
		return up * lo
	}
}

// negEvidenceFactor is the unary approximation of the pairwise negative
// potential between node i and a two-hop node k whose belief is summarized
// by (mean, spread): P(no link | x_i) ≈ 1 − PRR(‖x_i − mean_k‖), floored and
// skipped when k's belief is too diffuse to carry information.
func negEvidenceFactor(meanK mathx.Vec2, spreadK, r float64, prr func(float64) float64) func(mathx.Vec2) float64 {
	// A diffuse summary (spread beyond half the radio range) would smear
	// the factor to uselessness; treat as uninformative.
	if spreadK > 0.5*r {
		return nil
	}
	return func(x mathx.Vec2) float64 {
		p := 1 - prr(x.Dist(meanK))
		if p < 0.05 {
			p = 0.05 // floor: never annihilate, the summary is approximate
		}
		return p
	}
}

// mulNegEvidence multiplies b (unnormalized) by the negative-evidence factor
// of the two-hop digest d and reports whether the factor applied; a digest
// too diffuse to carry information leaves b untouched. The factor's reach is
// Prop.MaxRange(): PRR is exactly 0 from there on (the Propagation
// contract), so beyond it the factor is exactly 1 and only the window around
// d.mean is multiplied — bit-identical to the full-grid product, at a cost
// that follows the window instead of the grid.
func (e *env) mulNegEvidence(b *bayes.Belief, d digest) bool {
	f := negEvidenceFactor(d.mean, clampSpread(d.spread), e.p.R, e.p.Prop.PRR)
	if f == nil {
		return false
	}
	b.MulFuncWithin(d.mean, e.p.Prop.MaxRange(), f)
	return true
}

// clampSpread sanitizes a digest spread value.
func clampSpread(s float64) float64 {
	if math.IsNaN(s) || s < 0 {
		return 0
	}
	return s
}
