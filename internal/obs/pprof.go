package obs

import (
	"fmt"
	"os"
	"runtime"
	runtimepprof "runtime/pprof"
)

// Profiling helpers: thin wrappers that give the CLIs -cpuprofile /
// -memprofile flags without each command re-implementing the file
// plumbing. The live /debug/pprof endpoints ride the ops plane (-obs-http).

// StartCPUProfile begins writing a CPU profile to path and returns the stop
// function. The returned stop closes the file and must be called exactly
// once (typically deferred from main).
func StartCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: cpu profile: %w", err)
	}
	if err := runtimepprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: cpu profile: %w", err)
	}
	return func() error {
		runtimepprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// WriteHeapProfile garbage-collects (so the profile reflects live memory)
// and writes a heap profile to path.
func WriteHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: heap profile: %w", err)
	}
	runtime.GC()
	werr := runtimepprof.WriteHeapProfile(f)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("obs: heap profile: %w", werr)
	}
	return cerr
}
