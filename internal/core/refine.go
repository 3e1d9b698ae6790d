package core

import (
	"wsnloc/internal/bayes"
	"wsnloc/internal/geom"
	"wsnloc/internal/mathx"
)

// Local grid refinement: the global belief grid's cell size floors the
// achievable accuracy (E12). After BP converges, a node can re-evaluate its
// posterior on a fine grid spanning only the neighborhood of its coarse
// estimate — the pre-knowledge factors are evaluated directly and each
// cached neighbor belief is pushed through the exact measurement likelihood
// (no coarse kernel). This is a purely local computation: it costs zero
// additional radio traffic.

// refineEstimate recomputes the posterior of a grid node on a fine local
// grid centered at its current mean, returning the refined mean and spread.
// windowRadius sets the half-width of the local grid; fineN its resolution.
func (n *gridNode) refineEstimate(windowRadius float64, fineN int) (mathx.Vec2, float64, bool) {
	if n.belief == nil || n.anchor {
		return mathx.Vec2{}, 0, false
	}
	center := n.belief.Mean()
	bounds := geom.NewRect(
		center.X-windowRadius, center.Y-windowRadius,
		center.X+windowRadius, center.Y+windowRadius,
	)
	fine := geom.NewGrid(bounds, fineN, fineN)

	// Pre-knowledge factors, evaluated exactly on the fine grid.
	hops := sortedHopTable(n.hopTable)
	rUp, rLo := n.e.hopBounds()
	post := n.e.cfg.PK.buildPrior(fine, n.e.p.Deploy.Region, hops, rUp, rLo, nil)

	// Neighbor messages: push each cached neighbor belief through the exact
	// likelihood at fine-cell resolution. Cost |support_j| × fineN² per
	// neighbor, done once.
	for _, j := range sortedKeys(nil, n.nbr) {
		nb := n.nbr[j].last // retained because Config.Refine is set
		if nb == nil {
			continue
		}
		meas, ok := n.measTo(j)
		if !ok {
			continue
		}
		msg := projectMessage(nb, fine, func(d float64) float64 {
			return n.e.p.Ranger.Likelihood(meas, d)
		})
		post.MulFloored(msg, n.e.cfg.MessageFloor)
		if !post.Normalize() {
			return center, n.belief.Spread(), true // keep the coarse answer
		}
	}
	if n.e.cfg.PK.UseNegativeEvidence {
		for _, k := range sortedKeys(nil, n.twoHop) {
			if !n.e.mulNegEvidence(post, n.twoHop[k]) {
				continue
			}
			if !post.Normalize() {
				return center, n.belief.Spread(), true
			}
		}
	}
	return post.Mean(), post.Spread(), true
}

// projectMessage evaluates m(x) = Σ_c b[c] · lik(‖x − center_c‖) on the
// cells of the destination grid, using only the source belief's support.
func projectMessage(src *bayes.Belief, dst *geom.Grid, lik func(float64) float64) *bayes.Belief {
	out := &bayes.Belief{Grid: dst, W: make([]float64, dst.Cells())}
	support := src.Support(1e-3)
	for idx := range out.W {
		x := dst.CenterIdx(idx)
		s := 0.0
		for _, c := range support {
			s += src.At(c) * lik(x.Dist(src.Grid.CenterIdx(c)))
		}
		out.W[idx] = s
	}
	return out
}
