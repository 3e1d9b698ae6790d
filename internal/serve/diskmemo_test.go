package serve

import (
	"bytes"
	"net/http"
	"testing"

	"wsnloc/internal/exec"
	"wsnloc/internal/obs"
)

func TestDiskMemoNilWhenUnconfigured(t *testing.T) {
	dm, err := openDiskMemo("", "solve")
	if err != nil {
		t.Fatal(err)
	}
	if dm != nil {
		t.Fatal("empty dir should yield a nil disk tier")
	}
	// The tiered wrapper must tolerate the nil tier.
	tm := &tieredMemo{mem: newMemo(4), disk: dm}
	tm.Put("k", []byte("v"))
	if got, tier, ok := tm.Get("k"); !ok || tier != tierMem || string(got) != "v" {
		t.Fatalf("Get = %q,%q,%v", got, tier, ok)
	}
}

// TestDiskMemoSurvivesRestart is the acceptance test for the disk tier: a
// solve answered by one server instance is a warm cache hit — served from
// the disk tier, byte-identical — on a fresh instance sharing the memo dir,
// with no execution.
func TestDiskMemoSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Pool: exec.Config{Workers: 2}, MemoDir: dir}

	_, ts1 := testServer(t, cfg)
	resp := postJSON(t, ts1.URL+"/v1/solve", testSpecJSON)
	cold := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold solve: %d %s", resp.StatusCode, cold)
	}
	if v := resp.Header.Get("X-Wsnloc-Cache"); v != cacheMiss {
		t.Fatalf("cold verdict = %q, want miss", v)
	}
	ts1.Close()

	// "Restart": a brand-new server over the same memo dir. Its in-memory
	// LRU is empty, so the answer must come off disk.
	s2, ts2 := testServer(t, cfg)
	jobs0 := s2.Pool().CompletedJobs()
	resp = postJSON(t, ts2.URL+"/v1/solve", testSpecJSON)
	warm := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm solve: %d %s", resp.StatusCode, warm)
	}
	if v := resp.Header.Get("X-Wsnloc-Cache"); v != cacheHit {
		t.Errorf("warm verdict = %q, want hit", v)
	}
	if tier := resp.Header.Get("X-Wsnloc-Cache-Tier"); tier != tierDisk {
		t.Errorf("warm tier = %q, want %q", tier, tierDisk)
	}
	if !bytes.Equal(warm, cold) {
		t.Errorf("restart broke byte identity:\n%s\nvs\n%s", warm, cold)
	}
	if got := s2.Pool().CompletedJobs() - jobs0; got != 0 {
		t.Errorf("warm hit ran %d jobs, want 0", got)
	}

	// The disk hit promoted the entry into memory: next hit is the mem tier.
	resp = postJSON(t, ts2.URL+"/v1/solve", testSpecJSON)
	readBody(t, resp)
	if tier := resp.Header.Get("X-Wsnloc-Cache-Tier"); tier != tierMem {
		t.Errorf("post-promotion tier = %q, want %q", tier, tierMem)
	}
}

// TestDiskMemoSweepRestart covers the sweep endpoint's disk tier the same
// way, and checks the per-tier observability counters move.
func TestDiskMemoSweepRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Pool: exec.Config{Workers: 2}, MemoDir: dir, Registry: obs.NewRegistry()}

	_, ts1 := testServer(t, cfg)
	resp := postJSON(t, ts1.URL+"/v1/sweep", testSweepJSON)
	cold := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold sweep: %d %s", resp.StatusCode, cold)
	}
	ts1.Close()

	// Fresh registry so the second instance's counters start at zero.
	cfg.Registry = obs.NewRegistry()
	s2, ts2 := testServer(t, cfg)
	resp = postJSON(t, ts2.URL+"/v1/sweep", testSweepJSON)
	warm := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm sweep: %d %s", resp.StatusCode, warm)
	}
	if v, tier := resp.Header.Get("X-Wsnloc-Cache"), resp.Header.Get("X-Wsnloc-Cache-Tier"); v != cacheHit || tier != tierDisk {
		t.Errorf("warm sweep verdict/tier = %q/%q, want hit/disk", v, tier)
	}
	if !bytes.Equal(warm, cold) {
		t.Error("sweep restart broke byte identity")
	}
	if got := s2.m.diskHits.Value(); got != 1 {
		t.Errorf("disk-hit counter = %v, want 1", got)
	}
	if got := s2.m.memMisses.Value(); got < 1 {
		t.Errorf("mem-miss counter = %v, want >= 1 (disk hit implies mem miss)", got)
	}
}
