package sweep

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"wsnloc/internal/alg"
	"wsnloc/internal/obs"
	"wsnloc/internal/wsnerr"
)

// executions counts how many cells a run actually computed (cached=false
// sweep.cell.done events) — the observable the resume guarantee is stated in.
func executions(m *obs.Memory) int {
	n := 0
	for _, e := range m.ByName("sweep.cell.done") {
		if cached, ok := e.Fields["cached"].(bool); ok && !cached {
			n++
		}
	}
	return n
}

func TestRunCollectsEveryCell(t *testing.T) {
	sw := twoByTwo()
	res, err := Run(sw, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 8 || res.Executed != 8 || res.Cached != 0 {
		t.Fatalf("cells=%d executed=%d cached=%d", len(res.Cells), res.Executed, res.Cached)
	}
	for i, c := range res.Cells {
		if c.Index != i {
			t.Errorf("cell %d carries index %d", i, c.Index)
		}
		if c.Key == "" || c.Eval.Trials != 2 {
			t.Errorf("cell %d incomplete: key=%q trials=%d", i, c.Key, c.Eval.Trials)
		}
	}
}

// The headline guarantee: a completed sweep resumed against the same output
// directory re-runs zero cells, and its result is identical.
func TestResumeRerunsZeroCompletedCells(t *testing.T) {
	dir := t.TempDir()
	sw := twoByTwo()

	cold := obs.NewMemory()
	first, err := Run(sw, Options{OutDir: dir, Workers: 2, Tracer: cold})
	if err != nil {
		t.Fatal(err)
	}
	if got := executions(cold); got != 8 {
		t.Fatalf("cold run executed %d cells, want 8", got)
	}
	// The caller's tracer carries the whole tree: sweep → cell → trial.
	sweepID, _ := cold.ByName("sweep.start")[0].Fields["span_id"].(string)
	cellIDs := map[string]bool{}
	for _, e := range cold.ByName("sweep.cell.start") {
		if e.Fields["parent_id"] != sweepID {
			t.Errorf("sweep.cell.start parent_id = %v, want the sweep span %q", e.Fields["parent_id"], sweepID)
		}
		id, _ := e.Fields["span_id"].(string)
		cellIDs[id] = true
	}
	trials := cold.ByName("trial.done")
	if len(trials) != 16 { // 8 cells × 2 trials
		t.Errorf("got %d trial.done events, want 16", len(trials))
	}
	for _, e := range trials {
		if pid, _ := e.Fields["parent_id"].(string); !cellIDs[pid] {
			t.Errorf("trial.done parent_id %q is not a cell span", pid)
		}
	}

	warm := obs.NewMemory()
	second, err := Run(sw, Options{OutDir: dir, Workers: 2, Resume: true, Tracer: warm})
	if err != nil {
		t.Fatal(err)
	}
	if got := executions(warm); got != 0 {
		t.Errorf("resume executed %d cells, want 0", got)
	}
	if second.Executed != 0 || second.Cached != 8 {
		t.Errorf("resume split = executed %d / cached %d", second.Executed, second.Cached)
	}
	for i := range first.Cells {
		a, b := first.Cells[i], second.Cells[i]
		if a.Key != b.Key || !reflect.DeepEqual(a.Eval, b.Eval) {
			t.Errorf("cell %d drifted across resume", i)
		}
	}
}

// cancelAfter cancels a context once n sweep.cell.done events have been
// emitted — a deterministic mid-sweep kill when Workers is 1.
type cancelAfter struct {
	mu     sync.Mutex
	left   int
	cancel context.CancelFunc
}

func (c *cancelAfter) Enabled() bool { return true }
func (c *cancelAfter) Emit(e obs.Event) {
	if e.Name != "sweep.cell.done" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.left--
	if c.left == 0 {
		c.cancel()
	}
}

func TestKilledSweepResumesWithoutRecomputing(t *testing.T) {
	dir := t.TempDir()
	sw := twoByTwo()
	const completed = 3

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ca := &cancelAfter{left: completed, cancel: cancel}
	if _, err := RunCtx(ctx, sw, Options{OutDir: dir, Workers: 1, Tracer: ca}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := cache.Len(); got != completed {
		t.Fatalf("killed run cached %d cells, want %d", got, completed)
	}

	warm := obs.NewMemory()
	res, err := Run(sw, Options{OutDir: dir, Workers: 1, Resume: true, Tracer: warm})
	if err != nil {
		t.Fatal(err)
	}
	if got := executions(warm); got != 8-completed {
		t.Errorf("resume executed %d cells, want %d", got, 8-completed)
	}
	if res.Cached != completed || res.Executed != 8-completed {
		t.Errorf("resume split = executed %d / cached %d", res.Executed, res.Cached)
	}
}

// The merged summary is a pure function of the cell evaluations: a fully
// cached run must produce byte-identical summary output to the cold run.
func TestSummaryByteIdenticalColdVsCached(t *testing.T) {
	dir := t.TempDir()
	sw := twoByTwo()

	first, err := Run(sw, Options{OutDir: dir, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(sw, Options{OutDir: dir, Workers: 1, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached != len(second.Cells) {
		t.Fatalf("second run not fully cached: %d/%d", second.Cached, len(second.Cells))
	}
	var a, b bytes.Buffer
	if err := first.Summary().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := second.Summary().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("summaries differ:\ncold:\n%s\ncached:\n%s", a.String(), b.String())
	}
}

// Worker count is a wall-clock knob: every pool size yields the same cells.
func TestWorkerCountInvariance(t *testing.T) {
	sw := twoByTwo()
	base, err := Run(sw, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 0} {
		res, err := Run(sw, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		for i := range base.Cells {
			if !reflect.DeepEqual(base.Cells[i].Eval, res.Cells[i].Eval) {
				t.Errorf("workers=%d: cell %d differs from sequential", w, i)
			}
		}
	}
}

func TestRunBadInputs(t *testing.T) {
	if _, err := Run(Spec{}, Options{}); !errors.Is(err, wsnerr.ErrBadSpec) {
		t.Errorf("empty sweep: err = %v, want ErrBadSpec", err)
	}
	if _, err := Run(twoByTwo(), Options{Workers: -2}); !errors.Is(err, wsnerr.ErrBadConfig) {
		t.Errorf("negative workers: err = %v, want ErrBadConfig", err)
	}
}

// The seed axis must actually vary the computation: different seeds,
// different per-cell error samples.
func TestSeedAxisVariesResults(t *testing.T) {
	sw := Spec{
		Scenarios:  []alg.Scenario{{N: 30, Field: 50, Seed: 1}},
		Algorithms: []string{"centroid"},
		Seeds:      []uint64{1, 2},
		Trials:     1,
	}
	res, err := Run(sw, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(res.Cells[0].Eval.Errors, res.Cells[1].Eval.Errors) {
		t.Error("seed axis produced identical error samples")
	}
}
