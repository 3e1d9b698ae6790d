package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"wsnloc"
	"wsnloc/internal/serve"
)

// rmseTolerance is how far a response's rmse_r may sit from the value
// recomputed from its estimates against rebuilt ground truth.
const rmseTolerance = 1e-9

// check validates every answer of the run. A request that fails a check
// gets the reason in its fail field; b.errs collects the accuracy of every
// execution; b.problems collects run-level failures.
func (b *bench) check(ctx context.Context) error {
	all := b.all()

	// The reference bytes of a hash are those its execution produced; every
	// memo hit and coalesced answer for the hash must repeat them exactly.
	b.reference = map[string][]byte{}
	var executions []*sample
	for _, s := range all {
		if s.fail != "" || s.status != http.StatusOK || s.verdict != "miss" {
			continue
		}
		if ref, ok := b.reference[s.req.hash]; ok && !bytes.Equal(ref, s.body) {
			s.fail = "two executions of one spec returned different bytes"
			continue
		}
		b.reference[s.req.hash] = s.body
		executions = append(executions, s)
	}
	for _, s := range all {
		if s.fail == "" {
			s.fail = b.checkAnswer(s)
		}
	}

	// A seeded sample of executions must equal the in-process encode of the
	// same spec run by the library directly.
	for _, s := range pick(b.cfg.seed, executions, b.w.verify) {
		want, err := runInProcess(ctx, s.req)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, s.body) {
			s.fail = "answer differs from the in-process run of the same spec"
		}
	}

	if b.open {
		if late := percentile(msOf(b.gen.late), 0.99); late > ms(maxLateP99) {
			b.problems = append(b.problems, fmt.Sprintf("generator ran %.2fms late at p99 (bound %s)", late, maxLateP99))
		}
		if bound := int(b.sz.mixRate * maxBacklog.Seconds()); b.gen.backlog > bound {
			b.problems = append(b.problems, fmt.Sprintf("window closed with %d requests queued for a connection (bound %d)", b.gen.backlog, bound))
		}
	}
	return nil
}

// checkAnswer checks one answer against the contract of its kind and
// returns why it fails ("" when it passes).
func (b *bench) checkAnswer(s *sample) string {
	want := etagOf(s.req.hash)
	if s.req.revalidate {
		switch {
		case s.status != http.StatusNotModified:
			return fmt.Sprintf("revalidation answered %d, want 304", s.status)
		case s.etag != want:
			return fmt.Sprintf("304 carries ETag %s, want %s", s.etag, want)
		case len(s.body) != 0:
			return fmt.Sprintf("304 carries a %d-byte body", len(s.body))
		}
		return ""
	}
	switch {
	case s.status != http.StatusOK:
		return fmt.Sprintf("answered %d, want 200", s.status)
	case s.etag != want:
		return fmt.Sprintf("ETag %s, want %s", s.etag, want)
	}
	switch s.verdict {
	case "miss":
		if s.req.path == "/v1/sweep" {
			return b.checkSweep(s)
		}
		return b.checkSolve(s)
	case "hit", "coalesced":
		ref, ok := b.reference[s.req.hash]
		switch {
		case !ok:
			return fmt.Sprintf("a %s answer for a spec that was never executed", s.verdict)
		case !bytes.Equal(ref, s.body):
			return fmt.Sprintf("%s answer differs from the executed answer", s.verdict)
		}
		return ""
	default:
		return fmt.Sprintf("unknown X-Wsnloc-Cache verdict %q", s.verdict)
	}
}

// solveAnswer is the part of a /v1/solve answer the checks read.
type solveAnswer struct {
	SpecHash string `json:"spec_hash"`
	Stats    struct {
		NormRMSE  float64 `json:"rmse_r"`
		Localized int     `json:"localized"`
		Unknowns  int     `json:"unknowns"`
	} `json:"stats"`
	Est []*[2]float64 `json:"est"`
}

// checkSolve recomputes an executed solve's accuracy from its estimates and
// ground truth rebuilt from the spec, compares it with what the answer
// reports, and records every localized node's error over R.
func (b *bench) checkSolve(s *sample) string {
	var ans solveAnswer
	if err := json.Unmarshal(s.body, &ans); err != nil {
		return "undecodable solve answer: " + err.Error()
	}
	if ans.SpecHash != s.req.hash {
		return fmt.Sprintf("spec_hash %s, want %s", ans.SpecHash, s.req.hash)
	}
	sp, err := wsnloc.ParseSpec(s.req.body)
	if err != nil {
		return err.Error()
	}
	p, err := sp.Scenario.Build()
	if err != nil {
		return "rebuilding ground truth: " + err.Error()
	}
	if len(ans.Est) != p.Deploy.N() {
		return fmt.Sprintf("%d estimates for %d nodes", len(ans.Est), p.Deploy.N())
	}
	var sq float64
	var errs []float64
	unknowns, localized := 0, 0
	for i, pos := range p.Deploy.Pos {
		if p.Deploy.Anchor[i] {
			continue
		}
		unknowns++
		if e := ans.Est[i]; e != nil {
			localized++
			dx, dy := e[0]-pos.X, e[1]-pos.Y
			sq += dx*dx + dy*dy
			errs = append(errs, math.Hypot(dx, dy)/p.R)
		}
	}
	if unknowns != ans.Stats.Unknowns || localized != ans.Stats.Localized {
		return fmt.Sprintf("answer counts %d/%d localized, estimates show %d/%d",
			ans.Stats.Localized, ans.Stats.Unknowns, localized, unknowns)
	}
	if localized == 0 {
		if ans.Stats.NormRMSE != -1 {
			return fmt.Sprintf("rmse_r %v with nothing localized, want -1", ans.Stats.NormRMSE)
		}
		return ""
	}
	norm := math.Sqrt(sq/float64(localized)) / p.R
	if math.Abs(norm-ans.Stats.NormRMSE) > rmseTolerance {
		return fmt.Sprintf("rmse_r %v, recomputed %v", ans.Stats.NormRMSE, norm)
	}
	b.errs = append(b.errs, errs...)
	return ""
}

// sweepAnswer is the part of a /v1/sweep answer the checks read.
type sweepAnswer struct {
	SweepHash string `json:"sweep_hash"`
	Summary   struct {
		Cells []struct {
			MedianErr float64 `json:"median_err_m"`
		} `json:"cells"`
	} `json:"summary"`
}

// checkSweep checks an executed sweep's content address and cell count and
// records each cell's median error over R.
func (b *bench) checkSweep(s *sample) string {
	var ans sweepAnswer
	if err := json.Unmarshal(s.body, &ans); err != nil {
		return "undecodable sweep answer: " + err.Error()
	}
	if ans.SweepHash != s.req.hash {
		return fmt.Sprintf("sweep_hash %s, want %s", ans.SweepHash, s.req.hash)
	}
	if len(ans.Summary.Cells) != sweepCells {
		return fmt.Sprintf("%d cells, want %d", len(ans.Summary.Cells), sweepCells)
	}
	sw, err := wsnloc.ParseSweepSpec(s.req.body)
	if err != nil {
		return err.Error()
	}
	r := sw.Scenarios[0].Defaults().R // every sweepRequest scenario shares it
	for _, c := range ans.Summary.Cells {
		// A baseline may localize nothing in a sparse-anchor cell (-1).
		if c.MedianErr >= 0 {
			b.errs = append(b.errs, c.MedianErr/r)
		}
	}
	return ""
}

// runInProcess computes the answer to req with the library directly: the
// spec run and encoded exactly as the daemon's job does.
func runInProcess(ctx context.Context, req *request) ([]byte, error) {
	if req.path == "/v1/sweep" {
		sw, err := wsnloc.ParseSweepSpec(req.body)
		if err != nil {
			return nil, err
		}
		res, err := wsnloc.RunSweepCtx(ctx, sw, wsnloc.SweepOptions{Workers: workers})
		if err != nil {
			return nil, err
		}
		return serve.EncodeSweepResponse(req.hash, res)
	}
	sp, err := wsnloc.ParseSpec(req.body)
	if err != nil {
		return nil, err
	}
	p, res, err := wsnloc.RunSpec(ctx, sp)
	if err != nil {
		return nil, err
	}
	return serve.EncodeSolveResponse(req.hash, sp, p, res)
}
