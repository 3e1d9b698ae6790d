package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceOutput is the acceptance check of the observability layer:
// `wsnloc -trace out.jsonl` must produce valid JSONL carrying the per-round
// BNCL convergence events.
func TestTraceOutput(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "out.jsonl")
	var out, errb bytes.Buffer
	args := []string{"-n", "60", "-field", "70", "-alg", "bncl-grid", "-seed", "4", "-trace", trace}
	if code := run(context.Background(), args, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}

	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	counts := map[string]int{}
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		var obj map[string]interface{}
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", line, err, sc.Text())
		}
		name, _ := obj["event"].(string)
		if name == "" {
			t.Fatalf("line %d has no event name: %s", line, sc.Text())
		}
		if _, ok := obj["t"].(string); !ok {
			t.Fatalf("line %d has no timestamp: %s", line, sc.Text())
		}
		counts[name]++
		if name == "bncl.round" {
			if _, ok := obj["round"].(float64); !ok {
				t.Errorf("bncl.round without round index: %s", sc.Text())
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if counts["bncl.round"] == 0 {
		t.Errorf("no bncl.round events in trace (have %v)", counts)
	}
	if counts["bncl.phase"] == 0 {
		t.Errorf("no bncl.phase events in trace (have %v)", counts)
	}
	if counts["bncl.run.done"] != 1 {
		t.Errorf("bncl.run.done count = %d, want 1", counts["bncl.run.done"])
	}
	if counts["algorithm"] != 1 {
		t.Errorf("algorithm count = %d, want 1", counts["algorithm"])
	}
}

func TestMetricsOutput(t *testing.T) {
	dir := t.TempDir()
	mjson := filepath.Join(dir, "metrics.json")
	mprom := filepath.Join(dir, "metrics.prom")
	var out, errb bytes.Buffer
	args := []string{"-n", "60", "-field", "70", "-alg", "bncl-grid", "-seed", "4",
		"-metrics", mjson, "-metrics-prom", mprom}
	if code := run(context.Background(), args, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}

	data, err := os.ReadFile(mjson)
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &reg); err != nil {
		t.Fatalf("metrics JSON invalid: %v", err)
	}
	if reg.Counters["wsnloc_bncl_runs_total"] != 1 {
		t.Errorf("wsnloc_bncl_runs_total = %v, want 1 (counters %v)",
			reg.Counters["wsnloc_bncl_runs_total"], reg.Counters)
	}
	if reg.Counters["wsnloc_bncl_bp_rounds_total"] == 0 {
		t.Error("no BP rounds counted")
	}

	prom, err := os.ReadFile(mprom)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "# TYPE wsnloc_bncl_runs_total counter") {
		t.Errorf("prometheus output malformed:\n%s", prom)
	}
}

func TestProfileOutput(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errb bytes.Buffer
	args := []string{"-n", "50", "-field", "65", "-alg", "min-max",
		"-cpuprofile", cpu, "-memprofile", mem}
	if code := run(context.Background(), args, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if fi, err := os.Stat(mem); err != nil || fi.Size() == 0 {
		t.Errorf("heap profile missing or empty: %v", err)
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Errorf("cpu profile missing or empty: %v", err)
	}
}

// A trace that cannot be created, or that loses events once running (a
// full device), fails the run with exit 1.
func TestTraceUnwritablePath(t *testing.T) {
	paths := []string{filepath.Join(t.TempDir(), "no/such/dir.jsonl")}
	if _, err := os.Stat("/dev/full"); err == nil {
		paths = append(paths, "/dev/full")
	}
	for _, path := range paths {
		var out, errb bytes.Buffer
		args := []string{"-n", "50", "-alg", "min-max", "-trace", path}
		if code := run(context.Background(), args, &out, &errb); code != 1 {
			t.Errorf("trace %s: exit %d, want 1 (stderr %q)", path, code, errb.String())
		}
	}
}
