package obs

import (
	"os"
	"path/filepath"
	"testing"
)

func TestCPUAndHeapProfiles(t *testing.T) {
	dir := t.TempDir()

	cpu := filepath.Join(dir, "cpu.pprof")
	stop, err := StartCPUProfile(cpu)
	if err != nil {
		t.Fatalf("StartCPUProfile: %v", err)
	}
	// Burn a little CPU so the profile has something to hold.
	x := 0.0
	for i := 0; i < 1_000_000; i++ {
		x += float64(i % 7)
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Errorf("cpu profile missing or empty: %v", err)
	}

	heap := filepath.Join(dir, "heap.pprof")
	if err := WriteHeapProfile(heap); err != nil {
		t.Fatalf("WriteHeapProfile: %v", err)
	}
	if fi, err := os.Stat(heap); err != nil || fi.Size() == 0 {
		t.Errorf("heap profile missing or empty: %v", err)
	}
}
