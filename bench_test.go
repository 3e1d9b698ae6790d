package wsnloc_test

// Benchmark harness: one benchmark per table/figure of the evaluation (see
// DESIGN.md §4). Each BenchmarkEx runs the full experiment pipeline at a
// reduced quality so `go test -bench=.` regenerates every result's shape in
// minutes on one core; `cmd/wsnloc-bench -full` produces the paper-scale
// numbers recorded in EXPERIMENTS.md. Micro-benchmarks for the hot kernels
// (graph build, BP round, particle update) follow the experiment benches.

import (
	"io"
	"testing"

	"wsnloc"
	"wsnloc/internal/expt"
)

// benchQuality keeps experiment benchmarks tractable on a single core.
func benchQuality() expt.Quality { return expt.Quality{Trials: 1, Scale: 0.5} }

func benchExperiment(b *testing.B, id string) {
	e, err := expt.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, benchQuality()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1SummaryTable(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2AnchorSweep(b *testing.B)       { benchExperiment(b, "E2") }
func BenchmarkE3NoiseSweep(b *testing.B)        { benchExperiment(b, "E3") }
func BenchmarkE4ConnectivitySweep(b *testing.B) { benchExperiment(b, "E4") }
func BenchmarkE5SizeSweep(b *testing.B)         { benchExperiment(b, "E5") }
func BenchmarkE6ErrorCDF(b *testing.B)          { benchExperiment(b, "E6") }
func BenchmarkE7Convergence(b *testing.B)       { benchExperiment(b, "E7") }
func BenchmarkE8MessageCost(b *testing.B)       { benchExperiment(b, "E8") }
func BenchmarkE9PKAblation(b *testing.B)        { benchExperiment(b, "E9") }
func BenchmarkE10Irregular(b *testing.B)        { benchExperiment(b, "E10") }
func BenchmarkE11Irregularity(b *testing.B)     { benchExperiment(b, "E11") }
func BenchmarkE12Resolution(b *testing.B)       { benchExperiment(b, "E12") }
func BenchmarkE13Mobile(b *testing.B)           { benchExperiment(b, "E13") }
func BenchmarkE14Placement(b *testing.B)        { benchExperiment(b, "E14") }
func BenchmarkE15Efficiency(b *testing.B)       { benchExperiment(b, "E15") }

// Micro-benchmarks: the per-run building blocks.

func BenchmarkScenarioBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (wsnloc.Scenario{N: 150, Seed: uint64(i)}).Build(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchAlgorithm(b *testing.B, name string) {
	p, err := wsnloc.Scenario{N: 100, Seed: 1}.Build()
	if err != nil {
		b.Fatal(err)
	}
	alg, err := wsnloc.Baseline(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wsnloc.Localize(p, alg, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalizeBNCLGrid(b *testing.B)     { benchAlgorithm(b, "bncl-grid") }
func BenchmarkLocalizeBNCLParticle(b *testing.B) { benchAlgorithm(b, "bncl-particle") }

// BenchmarkLocalizeCanonical is the paper's canonical solve — the default
// 150-node scenario under bncl-grid with every pre-knowledge term — on one
// worker, so a CPU profile of it shows the round engine's own split without
// scheduler noise:
//
//	go test -run '^$' -bench LocalizeCanonical -cpuprofile cpu.out .
//	go tool pprof -top cpu.out
func BenchmarkLocalizeCanonical(b *testing.B) {
	p, err := wsnloc.Scenario{Seed: 1}.Build()
	if err != nil {
		b.Fatal(err)
	}
	alg, err := wsnloc.NewAlgorithm("bncl-grid", wsnloc.AlgOpts{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wsnloc.Localize(p, alg, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalizeScale is the scale-5k workload's solve in-process: a
// 5000-node network at the canonical density (577 m field) under bncl-grid
// with message censoring 0.5 and support pruning 0.05, on the default worker
// count. Its profile shows where a large censored and pruned solve spends
// its time and memory:
//
//	go test -run '^$' -bench LocalizeScale -benchmem -cpuprofile cpu.out .
func BenchmarkLocalizeScale(b *testing.B) {
	p, err := wsnloc.Scenario{N: 5000, Field: 577, Seed: 1}.Build()
	if err != nil {
		b.Fatal(err)
	}
	alg, err := wsnloc.NewAlgorithm("bncl-grid", wsnloc.AlgOpts{Censor: 0.5, Prune: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wsnloc.Localize(p, alg, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBNCLGridTraced measures the BNCL solve with a tracer attached, so the
// no-op case can be compared against BenchmarkLocalizeBNCLGrid: the
// observability layer must stay within noise (~2%) when disabled.
func benchBNCLGridTraced(b *testing.B, tr wsnloc.Tracer) {
	p, err := wsnloc.Scenario{N: 100, Seed: 1}.Build()
	if err != nil {
		b.Fatal(err)
	}
	cfg := wsnloc.BNCLConfig{PK: wsnloc.AllPreKnowledge(), Tracer: tr}
	alg := wsnloc.BNCLWithConfig(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wsnloc.Localize(p, alg, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalizeBNCLGridNopTracer(b *testing.B) {
	benchBNCLGridTraced(b, wsnloc.NopTracer())
}

func BenchmarkLocalizeBNCLGridMemTracer(b *testing.B) {
	mem := wsnloc.NewMemoryTracer()
	b.Cleanup(func() { mem.Reset() })
	benchBNCLGridTraced(b, mem)
}
func BenchmarkLocalizeDVHop(b *testing.B)      { benchAlgorithm(b, "dv-hop") }
func BenchmarkLocalizeLSMultilat(b *testing.B) { benchAlgorithm(b, "ls-multilat") }
func BenchmarkLocalizeMDSMAP(b *testing.B)     { benchAlgorithm(b, "mds-map") }
