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

// TestJSONSummary checks the machine-readable benchmark mode: a human table
// on stdout plus a stable JSON document on disk.
func TestJSONSummary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	var out, errb bytes.Buffer
	args := []string{"-json", path, "-json-algs", "centroid, dv-hop", "-trials", "1", "-scale", "0.2"}
	if code := run(context.Background(), args, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"benchmark summary", "algorithm", "centroid", "dv-hop", "wrote " + path} {
		if !strings.Contains(s, want) {
			t.Errorf("stdout missing %q:\n%s", want, s)
		}
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum struct {
		Trials     int `json:"trials"`
		Algorithms []struct {
			Algorithm string  `json:"algorithm"`
			MeanErr   float64 `json:"mean_err_m"`
			P95Err    float64 `json:"p95_err_m"`
			Coverage  float64 `json:"coverage"`
			WallSec   float64 `json:"wall_sec"`
		} `json:"algorithms"`
	}
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatalf("summary is not valid JSON: %v", err)
	}
	if sum.Trials != 1 || len(sum.Algorithms) != 2 {
		t.Fatalf("summary shape wrong: %+v", sum)
	}
	if sum.Algorithms[0].Algorithm != "centroid" || sum.Algorithms[1].Algorithm != "dv-hop" {
		t.Errorf("algorithm order wrong: %+v", sum.Algorithms)
	}
}

// TestJSONSummaryWithTrace checks -trace works alongside -json and yields
// valid JSONL with trial events.
func TestJSONSummaryWithTrace(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "bench.json")
	tracePath := filepath.Join(dir, "trace.jsonl")
	var out, errb bytes.Buffer
	args := []string{"-json", jsonPath, "-json-algs", "centroid", "-trials", "2", "-scale", "0.2",
		"-trace", tracePath}
	if code := run(context.Background(), args, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	trials := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var obj map[string]interface{}
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("trace line invalid: %v", err)
		}
		if obj["event"] == "trial.done" {
			trials++
		}
	}
	if trials != 2 {
		t.Errorf("trace has %d trial events, want 2", trials)
	}
}

// A trace that loses events (a full device) fails the run with exit 1.
func TestTraceLostEventsFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	var out, errb bytes.Buffer
	args := []string{"-json", filepath.Join(t.TempDir(), "bench.json"), "-json-algs", "centroid",
		"-trials", "1", "-scale", "0.2", "-trace", "/dev/full"}
	if code := run(context.Background(), args, &out, &errb); code != 1 || !strings.Contains(errb.String(), "trace:") {
		t.Errorf("exit %d, stderr %q; want 1 and the trace error", code, errb.String())
	}
}

func TestSummaryUnknownAlgorithm(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-json", filepath.Join(t.TempDir(), "bench.json"), "-json-algs", "bogus"}
	if code := run(context.Background(), args, &out, &errb); code != 1 {
		t.Errorf("unknown algorithm: exit %d", code)
	}
}
