package expt

import (
	"context"
	"strings"
	"testing"

	"wsnloc/internal/core"
	"wsnloc/internal/obs"
)

// TestRunTrialsTracedParallel runs a traced multi-trial experiment over a
// worker pool: the shared sink must collect exactly one trial event per
// repetition plus the per-run algorithm events, and results must stay
// bit-identical to an untraced run. Run under -race this doubles as the
// concurrency audit of the tracer sinks.
func TestRunTrialsTracedParallel(t *testing.T) {
	s := Scenario{N: 60, Field: 70, Seed: 21}
	const trials = 6
	mk := func() core.Algorithm {
		alg, err := NewAlgorithm("bncl-grid", AlgOpts{GridN: 20, BPRounds: 5})
		if err != nil {
			t.Fatal(err)
		}
		return alg
	}

	plain, err := RunTrialsOpts(context.Background(), s, mk, trials, RunOpts{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}

	mem := obs.NewMemory()
	traced, err := RunTrialsOpts(context.Background(), s, mk, trials, RunOpts{Workers: 3, Tracer: mem})
	if err != nil {
		t.Fatal(err)
	}

	// Tracing must not perturb the results.
	if len(plain.Errors) != len(traced.Errors) {
		t.Fatalf("error pools differ: %d vs %d", len(plain.Errors), len(traced.Errors))
	}
	for i := range plain.Errors {
		if plain.Errors[i] != traced.Errors[i] {
			t.Fatalf("error %d differs: %v vs %v", i, plain.Errors[i], traced.Errors[i])
		}
	}
	if plain.Messages != traced.Messages {
		t.Errorf("traffic differs: %d vs %d", plain.Messages, traced.Messages)
	}

	trialEvents := mem.ByName("trial.done")
	if len(trialEvents) != trials {
		t.Fatalf("got %d trial.done events, want %d", len(trialEvents), trials)
	}
	if got := len(mem.ByName("trial.start")); got != trials {
		t.Fatalf("got %d trial.start events, want %d", got, trials)
	}
	seen := map[int]bool{}
	var msgsSum int
	for _, e := range trialEvents {
		v, ok := e.Float("trial")
		if !ok {
			t.Fatalf("trial event missing index: %v", e.Fields)
		}
		seen[int(v)] = true
		if m, ok := e.Float("msgs"); ok {
			msgsSum += int(m)
		}
	}
	if len(seen) != trials {
		t.Errorf("trial indices not unique: %v", seen)
	}
	if msgsSum != traced.Messages {
		t.Errorf("trial events carry %d msgs total, pooled eval has %d", msgsSum, traced.Messages)
	}

	// The tracer was injected into the worker algorithms, so per-run BNCL
	// events flow to the same sink, parented to their trial spans.
	runs := mem.ByName("bncl.run.done")
	if got := len(runs); got != trials {
		t.Errorf("got %d bncl.run.done events, want %d", got, trials)
	}
	trialSpans := map[string]bool{}
	for _, e := range trialEvents {
		if id, _ := e.Fields["span_id"].(string); id != "" {
			trialSpans[id] = true
		}
	}
	if len(trialSpans) != trials {
		t.Fatalf("trial.done span_ids not unique: %v", trialSpans)
	}
	for _, e := range runs {
		pid, _ := e.Fields["parent_id"].(string)
		if !trialSpans[pid] {
			t.Errorf("bncl.run.done parent_id %q is not a trial span", pid)
		}
	}
}

// TestQualityTracerFlowsToExperiments checks the -trace path of wsnloc-bench:
// a tracer on Quality reaches the algorithms the experiment tables run, and
// each trial's algorithm and bncl.run.* events are parented to its span.
func TestQualityTracerFlowsToExperiments(t *testing.T) {
	for _, tc := range []struct {
		alg  string
		opts AlgOpts
		runs int // bncl.run.done events per trial
	}{
		{"centroid", AlgOpts{}, 0},
		{"bncl-grid", AlgOpts{GridN: 20, BPRounds: 5}, 1},
	} {
		t.Run(tc.alg, func(t *testing.T) {
			mem := obs.NewMemory()
			s := Scenario{N: 40, Field: 60, Seed: 9}
			q := Quality{Trials: 2, Scale: 0.2, Tracer: mem}
			if _, err := runSeries(context.Background(), s, tc.alg, tc.opts, q); err != nil {
				t.Fatal(err)
			}
			trialSpans := map[string]bool{}
			for _, e := range mem.ByName("trial.done") {
				id, _ := e.Fields["span_id"].(string)
				trialSpans[id] = true
			}
			if len(trialSpans) != 2 {
				t.Fatalf("got %d distinct trial spans, want 2", len(trialSpans))
			}
			counts := map[string]int{}
			for _, e := range mem.Events() {
				if e.Name != "algorithm" && !strings.HasPrefix(e.Name, "bncl.run.") {
					continue
				}
				counts[e.Name]++
				if pid, _ := e.Fields["parent_id"].(string); !trialSpans[pid] {
					t.Errorf("%s parent_id %q is not a trial span", e.Name, pid)
				}
			}
			if counts["algorithm"] != 2 || counts["bncl.run.done"] != 2*tc.runs {
				t.Errorf("event counts %v, want 2 algorithm and %d bncl.run.done", counts, 2*tc.runs)
			}
		})
	}
}

// TestSummarize checks the machine-readable benchmark summary producer.
func TestSummarize(t *testing.T) {
	q := Quality{Trials: 1, Scale: 0.2}
	sum, err := Summarize(q, []string{"centroid", "dv-hop"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Trials != 1 || len(sum.Algorithms) != 2 {
		t.Fatalf("summary shape wrong: trials=%d algs=%d", sum.Trials, len(sum.Algorithms))
	}
	for _, a := range sum.Algorithms {
		if a.Algorithm == "" {
			t.Error("empty algorithm name")
		}
		if a.Coverage < 0 || a.Coverage > 1 {
			t.Errorf("%s coverage %v out of range", a.Algorithm, a.Coverage)
		}
		if a.WallSec < 0 {
			t.Errorf("%s negative wall time", a.Algorithm)
		}
	}
	if defaults := SummaryAlgorithms(); len(defaults) < 5 {
		t.Errorf("default summary set too small: %v", defaults)
	}

	if _, err := Summarize(q, []string{"no-such-alg"}, nil); err == nil {
		t.Error("unknown algorithm must error")
	}
}
