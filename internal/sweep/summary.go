package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"wsnloc/internal/metrics"
)

// The merge step: pool the per-cell evaluations into the paper-style
// accuracy curves — error versus anchor fraction and versus ranging noise,
// one series per algorithm. Summaries are fully deterministic functions of
// the cell evaluations (no wall times, no timestamps), so a cached sweep's
// summary is byte-identical to a cold run's.

// finiteOr keeps the summary JSON-encodable: error statistics are +Inf when
// an algorithm localizes nothing, which encoding/json rejects.
func finiteOr(v, fallback float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fallback
	}
	return v
}

// CellStats is one cell's scored outcome inside a summary. Error fields are
// -1 when the cell localized nothing.
type CellStats struct {
	Index       int     `json:"cell"`
	Algorithm   string  `json:"algorithm"`
	N           int     `json:"n"`
	AnchorFrac  float64 `json:"anchor_frac"`
	NoiseFrac   float64 `json:"noise_frac"`
	Seed        uint64  `json:"seed"`
	Trials      int     `json:"trials"`
	Key         string  `json:"key"`
	MeanErr     float64 `json:"mean_err_m"`
	MedianErr   float64 `json:"median_err_m"`
	RMSE        float64 `json:"rmse_m"`
	P95Err      float64 `json:"p95_err_m"`
	NormRMSE    float64 `json:"rmse_r"`
	Coverage    float64 `json:"coverage"`
	MsgsPerNode float64 `json:"msgs_per_node"`
}

// Point is one pooled point of a curve: every cell of the algorithm whose
// axis value is X, merged.
type Point struct {
	X        float64 `json:"x"`
	Cells    int     `json:"cells"`
	Trials   int     `json:"trials"`
	MeanErr  float64 `json:"mean_err_m"`
	RMSE     float64 `json:"rmse_m"`
	NormRMSE float64 `json:"rmse_r"`
	Coverage float64 `json:"coverage"`
}

// Curve is one algorithm's trajectory along one scenario axis.
type Curve struct {
	Algorithm string `json:"algorithm"`
	// Axis is the swept scenario field: "anchor_frac" or "noise_frac".
	Axis   string  `json:"axis"`
	Points []Point `json:"points"`
}

// Summary is the merged outcome of a sweep.
type Summary struct {
	Name   string      `json:"name,omitempty"`
	Engine int         `json:"engine_version"`
	Cells  []CellStats `json:"cells"`
	Curves []Curve     `json:"curves"`
}

// axes lists the scenario fields summaries group by.
var axes = []struct {
	name string
	of   func(CellStats) float64
}{
	{"anchor_frac", func(c CellStats) float64 { return c.AnchorFrac }},
	{"noise_frac", func(c CellStats) float64 { return c.NoiseFrac }},
}

// Summary merges the result's cells into per-cell stats and per-algorithm
// curves. Deterministic: cells in index order, algorithms sorted, points
// sorted by axis value.
func (r *Result) Summary() *Summary {
	out := &Summary{Name: r.Spec.Name, Engine: EngineVersion}
	evals := make(map[int]metrics.Eval, len(r.Cells))
	for _, cr := range r.Cells {
		s := cr.Cell.Spec.Scenario.Defaults()
		e := cr.Eval
		out.Cells = append(out.Cells, CellStats{
			Index:       cr.Index,
			Algorithm:   cr.Cell.Spec.Algorithm,
			N:           s.N,
			AnchorFrac:  s.AnchorFrac,
			NoiseFrac:   s.NoiseFrac,
			Seed:        cr.Cell.Spec.Seed,
			Trials:      cr.Cell.Trials,
			Key:         cr.Key,
			MeanErr:     finiteOr(e.MeanErr(), -1),
			MedianErr:   finiteOr(e.MedianErr(), -1),
			RMSE:        finiteOr(e.RMSE(), -1),
			P95Err:      finiteOr(e.P95Err(), -1),
			NormRMSE:    finiteOr(e.NormRMSE(), -1),
			Coverage:    e.Coverage(),
			MsgsPerNode: e.MsgsPerNode(),
		})
		evals[cr.Index] = cr.Eval
	}
	sort.Slice(out.Cells, func(i, j int) bool { return out.Cells[i].Index < out.Cells[j].Index })

	algNames := map[string]bool{}
	for _, c := range out.Cells {
		algNames[c.Algorithm] = true
	}
	sorted := make([]string, 0, len(algNames))
	for n := range algNames {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	for _, axis := range axes {
		for _, name := range sorted {
			// Pool every cell of this algorithm sharing an axis value, in
			// cell-index order so the merge is deterministic.
			byX := map[float64][]metrics.Eval{}
			counts := map[float64][]int{} // cells, trials
			for _, c := range out.Cells {
				if c.Algorithm != name {
					continue
				}
				x := axis.of(c)
				byX[x] = append(byX[x], evals[c.Index])
				if counts[x] == nil {
					counts[x] = []int{0, 0}
				}
				counts[x][0]++
				counts[x][1] += c.Trials
			}
			xs := make([]float64, 0, len(byX))
			for x := range byX {
				xs = append(xs, x)
			}
			sort.Float64s(xs)
			cu := Curve{Algorithm: name, Axis: axis.name}
			for _, x := range xs {
				merged := metrics.Merge(byX[x]...)
				cu.Points = append(cu.Points, Point{
					X:        x,
					Cells:    counts[x][0],
					Trials:   counts[x][1],
					MeanErr:  finiteOr(merged.MeanErr(), -1),
					RMSE:     finiteOr(merged.RMSE(), -1),
					NormRMSE: finiteOr(merged.NormRMSE(), -1),
					Coverage: merged.Coverage(),
				})
			}
			out.Curves = append(out.Curves, cu)
		}
	}
	return out
}

// WriteJSON writes the summary as one indented JSON document. Equal
// summaries produce byte-identical output.
func (s *Summary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Table renders the curves as plain-text tables (one block per axis, one
// row per algorithm, one column per axis value) for CLI output.
func (s *Summary) Table() string {
	var b strings.Builder
	for _, axisName := range []string{"anchor_frac", "noise_frac"} {
		curves := make([]Curve, 0, len(s.Curves))
		xsSet := map[float64]bool{}
		for _, c := range s.Curves {
			if c.Axis != axisName {
				continue
			}
			curves = append(curves, c)
			for _, p := range c.Points {
				xsSet[p.X] = true
			}
		}
		if len(curves) == 0 || len(xsSet) < 2 {
			continue // a single value is not a curve worth a table
		}
		xs := make([]float64, 0, len(xsSet))
		for x := range xsSet {
			xs = append(xs, x)
		}
		sort.Float64s(xs)
		fmt.Fprintf(&b, "rmse (R) vs %s\n", axisName)
		fmt.Fprintf(&b, "%-16s", "algorithm")
		for _, x := range xs {
			fmt.Fprintf(&b, " %8.3g", x)
		}
		b.WriteString("\n")
		for _, c := range curves {
			fmt.Fprintf(&b, "%-16s", c.Algorithm)
			at := map[float64]Point{}
			for _, p := range c.Points {
				at[p.X] = p
			}
			for _, x := range xs {
				if p, ok := at[x]; ok && p.NormRMSE >= 0 {
					fmt.Fprintf(&b, " %8.3f", p.NormRMSE)
				} else {
					fmt.Fprintf(&b, " %8s", "-")
				}
			}
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}
	return b.String()
}
