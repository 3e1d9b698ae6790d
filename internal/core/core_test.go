package core

import (
	"testing"

	"wsnloc/internal/geom"
	"wsnloc/internal/mathx"
	"wsnloc/internal/radio"
	"wsnloc/internal/rng"
	"wsnloc/internal/topology"
)

// testProblem builds a reproducible medium-density scenario.
func testProblem(t testing.TB, seed uint64, n int, anchorFrac float64) *Problem {
	t.Helper()
	return buildProblem(t, seed, n, anchorFrac, geom.NewRect(0, 0, 100, 100))
}

func buildProblem(t testing.TB, seed uint64, n int, anchorFrac float64, region geom.Region) *Problem {
	t.Helper()
	stream := rng.New(seed)
	const r = 22.0
	dep, err := topology.Deploy(n, int(float64(n)*anchorFrac), topology.UniformGen{}, region, topology.AnchorsRandom, stream.Split(1))
	if err != nil {
		t.Fatal(err)
	}
	prop := radio.UnitDisk{R: r}
	ranger := radio.TOAGaussian{R: r, SigmaFrac: 0.1}
	g := topology.BuildGraph(dep, prop, ranger, stream.Split(2))
	return &Problem{Deploy: dep, Graph: g, R: r, Prop: prop, Ranger: ranger}
}

func TestProblemValidate(t *testing.T) {
	p := testProblem(t, 1, 30, 0.2)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	cases := []func(*Problem){
		func(p *Problem) { p.Deploy = nil },
		func(p *Problem) { p.Graph = nil },
		func(p *Problem) { p.R = 0 },
		func(p *Problem) { p.Prop = nil },
		func(p *Problem) { p.Ranger = nil },
		func(p *Problem) { p.Loss = 1.0 },
		func(p *Problem) { p.Loss = -0.5 },
	}
	for i, mutate := range cases {
		q := *testProblem(t, 1, 30, 0.2)
		mutate(&q)
		if err := q.Validate(); err == nil {
			t.Errorf("case %d: invalid problem accepted", i)
		}
	}
}

func TestAnchorPos(t *testing.T) {
	p := testProblem(t, 2, 40, 0.25)
	ap := p.AnchorPos()
	if len(ap) != p.Deploy.NumAnchors() {
		t.Fatalf("anchor table size %d", len(ap))
	}
	for id, pos := range ap {
		if !p.Deploy.Anchor[id] || p.Deploy.Pos[id] != pos {
			t.Fatalf("anchor %d table wrong", id)
		}
	}
}

func TestNewResultPrefillsAnchors(t *testing.T) {
	p := testProblem(t, 3, 30, 0.3)
	r := NewResult(p)
	for _, id := range p.Deploy.AnchorIDs() {
		if !r.Localized[id] || r.Est[id] != p.Deploy.Pos[id] {
			t.Fatalf("anchor %d not prefilled", id)
		}
	}
	for _, id := range p.Deploy.UnknownIDs() {
		if r.Localized[id] {
			t.Fatalf("unknown %d marked localized", id)
		}
	}
}

func TestAnnulusFactor(t *testing.T) {
	a := mathx.V2(0, 0)
	f := annulusFactor(a, 2, 10, 5) // annulus ~ (5, 20]
	if f(mathx.V2(12, 0)) != 1 {
		t.Error("inside annulus not 1")
	}
	if got := f(mathx.V2(30, 0)); got > 1e-5 {
		t.Errorf("far outside = %v", got)
	}
	// Below soft lower bound: floored at 0.05, not zero.
	if got := f(mathx.V2(1, 0)); got < 0.04 || got > 0.06 {
		t.Errorf("inner floor = %v", got)
	}
	// Monotone decay across the upper edge.
	if f(mathx.V2(20.2, 0)) <= f(mathx.V2(20.9, 0)) {
		t.Error("upper edge not monotone")
	}
}

func TestNegEvidenceFactor(t *testing.T) {
	prr := radio.UnitDisk{R: 10}.PRR
	f := negEvidenceFactor(mathx.V2(0, 0), 1.0, 10, prr)
	if f == nil {
		t.Fatal("informative digest rejected")
	}
	// Close to the two-hop node: unlikely (floored at 0.05).
	if got := f(mathx.V2(2, 0)); got > 0.06 {
		t.Errorf("near factor = %v", got)
	}
	// Far: likely.
	if got := f(mathx.V2(30, 0)); got < 0.99 {
		t.Errorf("far factor = %v", got)
	}
	// Diffuse digest is ignored.
	if negEvidenceFactor(mathx.V2(0, 0), 6, 10, prr) != nil {
		t.Error("diffuse digest not rejected")
	}
}

func TestBuildPriorRespectsRegionAndAnnuli(t *testing.T) {
	g := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 25, 25)
	region := geom.OShape(geom.NewRect(0, 0, 100, 100))
	pk := AllPreKnowledge()
	hops := []anchorHop{{pos: mathx.V2(10, 50), hops: 1}}
	prior := pk.buildPrior(g, region, hops, 20, 10, nil)
	if !mathx.AlmostEqual(prior.Mass(), 1, 1e-9) {
		t.Fatal("prior not normalized")
	}
	// Mass inside the O hole must be zero.
	holeMass := 0.0
	ringFarMass := 0.0
	for idx, w := range prior.W {
		p := g.CenterIdx(idx)
		if p.X > 35 && p.X < 65 && p.Y > 35 && p.Y < 65 {
			holeMass += w
		}
		if p.Dist(mathx.V2(10, 50)) > 25 {
			ringFarMass += w
		}
	}
	if holeMass > 1e-9 {
		t.Errorf("hole mass = %v", holeMass)
	}
	// One hop from the anchor: almost all mass within ~R (+soft edge).
	if ringFarMass > 0.05 {
		t.Errorf("mass beyond 1-hop annulus = %v", ringFarMass)
	}
}

func TestBuildPriorFallsBackOnContradiction(t *testing.T) {
	g := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 20, 20)
	pk := AllPreKnowledge()
	// Two 1-hop anchors 90m apart with R=20: annuli are disjoint.
	hops := []anchorHop{
		{pos: mathx.V2(5, 5), hops: 1},
		{pos: mathx.V2(95, 95), hops: 1},
	}
	prior := pk.buildPrior(g, geom.NewRect(0, 0, 100, 100), hops, 20, 10, nil)
	if !mathx.AlmostEqual(prior.Mass(), 1, 1e-9) {
		t.Fatal("contradictory prior not recovered")
	}
}

func TestBuildPriorNoPK(t *testing.T) {
	g := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 10, 10)
	prior := NoPreKnowledge().buildPrior(g, geom.OShape(geom.NewRect(0, 0, 100, 100)), nil, 20, 10, nil)
	// Without pre-knowledge the prior must be uniform, hole included.
	u := 1.0 / 100
	for _, w := range prior.W {
		if !mathx.AlmostEqual(w, u, 1e-9) {
			t.Fatalf("no-PK prior not uniform: %v", w)
		}
	}
}

func TestBuildPriorDeployDensity(t *testing.T) {
	g := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 20, 20)
	pk := PreKnowledge{
		UseRegion:     true,
		DeployDensity: func(p mathx.Vec2) float64 { return p.X }, // heavier to the east
	}
	prior := pk.buildPrior(g, geom.NewRect(0, 0, 100, 100), nil, 20, 10, nil)
	if m := prior.Mean(); m.X <= 55 {
		t.Errorf("density prior mean = %v, want east of center", m)
	}
	// Density-only (no region) path.
	pk2 := PreKnowledge{DeployDensity: func(p mathx.Vec2) float64 { return p.Y }}
	prior2 := pk2.buildPrior(g, nil, nil, 20, 10, nil)
	if m := prior2.Mean(); m.Y <= 55 {
		t.Errorf("region-free density prior mean = %v", m)
	}
}

func TestPreKnowledgeDefaults(t *testing.T) {
	pk := PreKnowledge{}
	if pk.hopGamma() != 0.5 {
		t.Errorf("default gamma = %v", pk.hopGamma())
	}
	if pk.maxAnnuli() != 16 {
		t.Errorf("default max annuli = %v", pk.maxAnnuli())
	}
	pk.HopGamma = 0.7
	pk.MaxAnnuliAnchors = 3
	if pk.hopGamma() != 0.7 || pk.maxAnnuli() != 3 {
		t.Error("overrides ignored")
	}
	if clampSpread(-1) != 0 || clampSpread(2) != 2 {
		t.Error("clampSpread wrong")
	}
}
