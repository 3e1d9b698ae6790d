package main

import (
	"math"
	"os"
	"testing"
)

func loadExposition(t *testing.T, path string) exposition {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e, err := parseExposition(f)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// The two documents were scraped from wsnlocd (-memo-entries 1, a memo
// directory and a cell cache) around a known mix: spec B (a miss), spec A
// three times (a disk-tier hit, since B had evicted it from the one-entry
// LRU, then a memory hit, then a 304 revalidation), and two overlapping
// two-cell sweeps (three cells computed, one read from the cache). The sweep
// instruments did not exist yet at the first scrape.
func TestScrapeLayersFromRecordedExposition(t *testing.T) {
	b := &bench{scraped: delta{
		before: loadExposition(t, "testdata/metrics_before.json"),
		after:  loadExposition(t, "testdata/metrics_after.json"),
	}}
	if got := b.scraped.counter("wsnloc_serve_requests_total"); got != 6 {
		t.Fatalf("requests delta %v, want 6", got)
	}
	if _, ok := b.scraped.before.Counters["wsnloc_sweep_cache_hits_total"]; ok {
		t.Fatal("fixture: the sweep counters should be born between the scrapes")
	}
	got := b.scrapeLayers()
	for name, want := range map[string]float64{
		"serve.mem_hit_frac":       1.0 / 5, // one memory hit; B, A's disk hit and both sweeps missed memory
		"serve.disk_hit_frac":      1.0 / 4, // A from disk; B and both sweeps missed disk too
		"serve.not_modified_frac":  1.0 / 6,
		"serve.coalesced":          0,
		"exec.jobs_per_request":    5.0 / 6, // B, and each sweep's job plus its scatter helper
		"exec.rejected":            0,
		"sweep.cache_hit_frac":     1.0 / 4,
		"core.censored_frac":       0,
		"exec.wait_mean_ms":        0.234833 / 5,
		"core.bp_mean_ms":          74.176437,
		"core.hopflood_mean_ms":    0.193944,
		"bayes.conv_ms_per_run":    40.967326,
		"sweep.cell_mean_ms":       0.388021 / 3,
		"runtime.gc_pause_ms":      0.100769 / 2,
		"runtime.alloc_mb_per_req": 3880352.0 / 6 / (1 << 20),
	} {
		if math.Abs(got[name]-want) > 1e-9*math.Max(1, want) {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	for name := range got {
		if _, ok := layerUnits[name]; !ok {
			t.Errorf("scrapeLayers emits %s, which layerUnits does not name", name)
		}
	}
}

func TestDeltaOfAnAbsentHistogramIsZero(t *testing.T) {
	var d delta
	if m := d.mean("nothing"); m != 0 {
		t.Errorf("mean of an absent histogram = %v, want 0", m)
	}
}
