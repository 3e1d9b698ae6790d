package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the quick run checks
// against: every metric the benchmark promises, with its unit.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesTheHarness: BENCHMARK.json lists exactly the
// workloads and metrics, with units, that the harness implements.
func TestBenchmarkFileMatchesTheHarness(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if _, ok := workloadNamed(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has workloads %v, the harness %d", names, len(workloads))
	}
	listed := map[string]string{}
	for _, m := range f.EndToEnd {
		listed[m.Name] = m.Unit
	}
	assertUnits(t, "end_to_end", listed, e2eUnits)
	listed = map[string]string{}
	for _, m := range f.PerLayer {
		listed[m.Name] = m.Unit
	}
	assertUnits(t, "per_layer", listed, layerUnits)
}

func assertUnits(t *testing.T, section string, listed, emitted map[string]string) {
	t.Helper()
	for name, unit := range emitted {
		if listed[name] != unit {
			t.Errorf("%s: the harness emits %s in %q, BENCHMARK.json lists %q", section, name, unit, listed[name])
		}
	}
	for name := range listed {
		if _, ok := emitted[name]; !ok {
			t.Errorf("%s: BENCHMARK.json lists %s, the harness never emits it", section, name)
		}
	}
}

// TestQuickWorkloads runs every workload for two seconds at quick sizes,
// untraced and traced, with every correctness check on, against a freshly
// built wsnlocd.
func TestQuickWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds wsnlocd and drives every workload")
	}
	bin := filepath.Join(t.TempDir(), "wsnlocd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/wsnlocd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building wsnlocd: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run(context.Background(), []string{
					"-workload", w.name, "-seed", "3", "-seconds", "2", "-trace", trace,
					"-quick", "-wsnlocd", bin, "-work", t.TempDir(),
				}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("last line is not the report: %v", err)
				}
				if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
					t.Fatalf("report %+v\n%s", rep, stderr.String())
				}
				units := e2eUnits
				if trace == "1" {
					units = layerUnits
				}
				if got, want := sortedKeys(rep.Metrics), sortedKeys(units); strings.Join(got, " ") != strings.Join(want, " ") {
					t.Fatalf("metrics %v, want %v", got, want)
				}
				if trace == "0" {
					for name, m := range rep.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end %s = %v, want > 0", name, m.Value)
						}
					}
					return
				}
				v := func(name string) float64 { return rep.Metrics[name].Value }
				switch w.name {
				case "serve-mix":
					for _, name := range []string{"serve.coalesced", "serve.disk_hit_frac", "serve.not_modified_frac"} {
						if v(name) <= 0 {
							t.Errorf("serve-mix %s = %v, want > 0", name, v(name))
						}
					}
				case "sweep-cells":
					if v("sweep.cache_hit_frac") != 0.5 {
						t.Errorf("sweep.cache_hit_frac = %v, want exactly 0.5", v("sweep.cache_hit_frac"))
					}
				default:
					if v("core.bp_ms") <= 0 || v("sim.speedup_w2") <= 0 {
						t.Errorf("core.bp_ms %v, sim.speedup_w2 %v: want both > 0", v("core.bp_ms"), v("sim.speedup_w2"))
					}
				}
			})
		}
	}
}
