package core

import (
	"testing"

	"wsnloc/internal/geom"
	"wsnloc/internal/mathx"
	"wsnloc/internal/radio"
	"wsnloc/internal/rng"
	"wsnloc/internal/topology"
)

func trackerFixture(t *testing.T, region geom.Region) (*Tracker, radio.Ranger) {
	t.Helper()
	ranger := radio.TOAGaussian{R: 20, SigmaFrac: 0.05}
	bounds := geom.NewRect(0, 0, 100, 100)
	tr, err := NewTracker(region, bounds, 50, 3, ranger)
	if err != nil {
		t.Fatal(err)
	}
	return tr, ranger
}

func TestTrackerValidation(t *testing.T) {
	bounds := geom.NewRect(0, 0, 10, 10)
	rg := radio.TOAGaussian{R: 5, SigmaFrac: 0.1}
	if _, err := NewTracker(nil, bounds, 1, 1, rg); err == nil {
		t.Error("gridN=1 accepted")
	}
	if _, err := NewTracker(nil, bounds, 10, 0, rg); err == nil {
		t.Error("maxStep=0 accepted")
	}
	if _, err := NewTracker(nil, bounds, 10, 1, nil); err == nil {
		t.Error("nil ranger accepted")
	}
	// Region disjoint from bounds.
	far := geom.NewRect(500, 500, 600, 600)
	if _, err := NewTracker(far, bounds, 10, 1, rg); err == nil {
		t.Error("disjoint region accepted")
	}
}

func TestTrackerFollowsTarget(t *testing.T) {
	tr, ranger := trackerFixture(t, nil)
	refs := []mathx.Vec2{{X: 10, Y: 10}, {X: 90, Y: 10}, {X: 10, Y: 90}, {X: 90, Y: 90}, {X: 50, Y: 50}}
	stream := rng.New(1)
	rw := topology.RandomWaypoint{Region: geom.NewRect(10, 10, 90, 90), SpeedMin: 1, SpeedMax: 2.5}
	trace := rw.Trace(mathx.V2(50, 50), 60, stream.Split(1))

	var errSum float64
	var steps int
	for i, truth := range trace {
		var obs []RangeObs
		for _, ref := range refs {
			obs = append(obs, RangeObs{From: ref, Meas: ranger.Measure(truth.Dist(ref), stream)})
		}
		est, spread := tr.Step(obs)
		if spread < 0 {
			t.Fatal("negative spread")
		}
		if i >= 5 { // allow burn-in
			errSum += est.Dist(truth)
			steps++
		}
	}
	mean := errSum / float64(steps)
	t.Logf("tracking mean error %.2f m", mean)
	if mean > 3 {
		t.Errorf("tracking error %.2f m too high", mean)
	}
}

func TestTrackerDiffusesWithoutObservations(t *testing.T) {
	tr, ranger := trackerFixture(t, nil)
	stream := rng.New(2)
	truth := mathx.V2(40, 60)
	refs := []mathx.Vec2{{X: 10, Y: 10}, {X: 90, Y: 10}, {X: 50, Y: 90}}
	for i := 0; i < 8; i++ {
		var obs []RangeObs
		for _, ref := range refs {
			obs = append(obs, RangeObs{From: ref, Meas: ranger.Measure(truth.Dist(ref), stream)})
		}
		tr.Step(obs)
	}
	_, s0 := tr.Step(nil) // no observations: spread must grow
	_, s1 := tr.Step(nil)
	_, s2 := tr.Step(nil)
	if !(s2 > s1 && s1 > s0) {
		t.Errorf("spread did not grow: %v, %v, %v", s0, s1, s2)
	}
}

func TestTrackerRegionPriorConstrains(t *testing.T) {
	region := geom.Corridor(geom.NewRect(0, 0, 100, 100), 0.2)
	tr, _ := trackerFixture(t, region)
	// With no observations at all, the estimate must stay in the corridor.
	est, _ := tr.Step(nil)
	if est.Y < 35 || est.Y > 65 {
		t.Errorf("estimate %v escaped corridor prior", est)
	}
	// Even after updates the belief respects the mask.
	ranger := radio.TOAGaussian{R: 20, SigmaFrac: 0.05}
	truth := mathx.V2(30, 50)
	stream := rng.New(3)
	refs := []mathx.Vec2{{X: 10, Y: 50}, {X: 60, Y: 50}, {X: 30, Y: 42}}
	for i := 0; i < 5; i++ {
		var obs []RangeObs
		for _, ref := range refs {
			obs = append(obs, RangeObs{From: ref, Meas: ranger.Measure(truth.Dist(ref), stream)})
		}
		tr.Step(obs)
	}
	b := tr.Belief()
	outMass := 0.0
	for idx := 0; idx < b.Grid.Cells(); idx++ {
		if !region.Contains(b.Grid.CenterIdx(idx)) {
			outMass += b.At(idx)
		}
	}
	if outMass > 1e-9 {
		t.Errorf("posterior mass outside region: %v", outMass)
	}
}

func TestTrackerRecoversFromContradiction(t *testing.T) {
	tr, ranger := trackerFixture(t, nil)
	stream := rng.New(4)
	truth := mathx.V2(50, 50)
	refs := []mathx.Vec2{{X: 10, Y: 10}, {X: 90, Y: 10}, {X: 50, Y: 90}}
	for i := 0; i < 5; i++ {
		var obs []RangeObs
		for _, ref := range refs {
			obs = append(obs, RangeObs{From: ref, Meas: ranger.Measure(truth.Dist(ref), stream)})
		}
		tr.Step(obs)
	}
	// A wildly contradictory observation must not wipe out the belief.
	est, _ := tr.Step([]RangeObs{{From: mathx.V2(50, 50), Meas: 500}})
	if !est.IsFinite() {
		t.Fatal("non-finite estimate after contradiction")
	}
	if est.Dist(truth) > 15 {
		t.Errorf("estimate jumped to %v after contradictory obs", est)
	}
}

func TestTrackerReset(t *testing.T) {
	tr, ranger := trackerFixture(t, nil)
	stream := rng.New(5)
	truth := mathx.V2(20, 20)
	refs := []mathx.Vec2{{X: 10, Y: 10}, {X: 90, Y: 10}, {X: 50, Y: 90}}
	for i := 0; i < 5; i++ {
		var obs []RangeObs
		for _, ref := range refs {
			obs = append(obs, RangeObs{From: ref, Meas: ranger.Measure(truth.Dist(ref), stream)})
		}
		tr.Step(obs)
	}
	concentrated := tr.Belief().Spread()
	tr.Reset()
	if tr.Belief().Spread() <= concentrated {
		t.Error("reset did not restore the diffuse prior")
	}
}
