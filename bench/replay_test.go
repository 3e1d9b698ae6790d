package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func at(msec int) time.Time { return time.Unix(0, 0).Add(time.Duration(msec) * time.Millisecond) }

func TestSelfTimesSubtractChildrenOnce(t *testing.T) {
	spans := []span{
		{id: 1, name: "request", start: at(0), end: at(100)},
		{id: 2, parent: 1, name: "a", start: at(10), end: at(40)},
		{id: 3, parent: 1, name: "b", start: at(30), end: at(60)},  // overlaps a
		{id: 4, parent: 1, name: "c", start: at(90), end: at(120)}, // overruns the parent
		{id: 5, parent: 2, name: "a.child", start: at(15), end: at(20)},
		{id: 6, name: "other-root", start: at(0), end: at(7)},
	}
	want := []time.Duration{
		40 * time.Millisecond, // 100 − (10..60 ∪ 90..100)
		25 * time.Millisecond, // 30 − 5
		30 * time.Millisecond,
		30 * time.Millisecond,
		5 * time.Millisecond,
		7 * time.Millisecond,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %s, want %s", spans[i].name, got[i], want[i])
		}
	}
}

func TestReconcileGapIsTheUnexplainedShare(t *testing.T) {
	spans := []span{
		{id: 1, name: "request", start: at(0), end: at(80)},
		{id: 2, name: "request", start: at(0), end: at(70)},
	}
	rp := &replayer{roots: []rootPair{{1, 100 * time.Millisecond}, {2, 100 * time.Millisecond}}}
	if got := rp.layers(spans)["trace.reconcile_gap_frac"]; got < 0.2499 || got > 0.2501 {
		t.Errorf("reconcile gap %v, want 0.25 (150 of 200 ms explained)", got)
	}
}

// A real small BNCL solve: its bncl.phase events land as children inside
// the core span, and the span carries the convolution time.
func TestLocalizeSpansNestPhasesInsideCore(t *testing.T) {
	req := smallRequest(1, streamHot, 0)
	rp := &replayer{rec: &recorder{}, b: &bench{reference: map[string][]byte{}}}
	if err := rp.solve(context.Background(), 0, req); err != nil {
		t.Fatal(err)
	}
	st := stages(rp.rec.snapshot())
	for _, name := range []string{"alg.decode_hash", "topology.build", "core", "core.hopflood", "core.bp", "serve.encode"} {
		if st[name] == nil || st[name].n != 1 {
			t.Fatalf("want one %s span, have %+v", name, st[name])
		}
	}
	core := st["core"]
	if core.self < 0 || core.self > core.dur {
		t.Errorf("core self %s outside [0, %s]", core.self, core.dur)
	}
	if st["core.bp"].dur <= 0 || core.attrs["conv_ms"] <= 0 || core.attrs["node_rounds"] <= 0 {
		t.Errorf("bp %s, conv_ms %v, node_rounds %v: want all positive", st["core.bp"].dur, core.attrs["conv_ms"], core.attrs["node_rounds"])
	}
	// No daemon answer was recorded for the spec, so the replay must flag
	// it rather than pass it.
	if len(rp.problems) != 1 {
		t.Errorf("problems %v, want one unmatched replay", rp.problems)
	}
}

func TestWriteSpansIsJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	spans := []span{
		{id: 1, name: "request", start: at(5), end: at(15)},
		{id: 2, parent: 1, name: "core", start: at(6), end: at(14), attrs: map[string]float64{"conv_ms": 1}},
	}
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"self_us":2000`) || !strings.Contains(lines[1], `"parent":1`) {
		t.Errorf("unexpected JSONL:\n%s", data)
	}
}
