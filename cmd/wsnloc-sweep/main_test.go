package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wsnloc/internal/sweep"
)

const tinySweep = `{
	"name": "cli-test",
	"scenarios": [
		{"N": 25, "Field": 45, "AnchorFrac": 0.2, "Seed": 1},
		{"N": 25, "Field": 45, "AnchorFrac": 0.4, "Seed": 2}
	],
	"algorithms": ["centroid", "min-max"],
	"seeds": [3],
	"trials": 2
}`

func writeSpec(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestUsageErrors(t *testing.T) {
	if code, _, stderr := runCLI(t); code != 2 || !strings.Contains(stderr, "-sweep is required") {
		t.Errorf("no args: code=%d stderr=%q", code, stderr)
	}
	if code, _, _ := runCLI(t, "-nonsense"); code != 2 {
		t.Errorf("bad flag: code=%d", code)
	}
	if code, _, stderr := runCLI(t, "-sweep", "/does/not/exist.json"); code != 1 || stderr == "" {
		t.Errorf("missing file: code=%d", code)
	}
	bad := writeSpec(t, `{"algorithms":["centroid"]}`)
	if code, _, stderr := runCLI(t, "-sweep", bad); code != 1 || !strings.Contains(stderr, "scenario") {
		t.Errorf("invalid sweep: code=%d stderr=%q", code, stderr)
	}
}

func TestColdRunThenResume(t *testing.T) {
	spec := writeSpec(t, tinySweep)
	out := t.TempDir()

	code, stdout, stderr := runCLI(t, "-sweep", spec, "-out", out, "-workers", "2")
	if code != 0 {
		t.Fatalf("cold run: code=%d stderr=%s", code, stderr)
	}
	if !strings.Contains(stdout, "cells 4: executed 4, cached 0") {
		t.Errorf("cold run stdout:\n%s", stdout)
	}
	sumPath := filepath.Join(out, "summary.json")
	first, err := os.ReadFile(sumPath)
	if err != nil {
		t.Fatalf("summary not written: %v", err)
	}

	code, stdout, stderr = runCLI(t, "-sweep", spec, "-out", out, "-resume")
	if code != 0 {
		t.Fatalf("resume: code=%d stderr=%s", code, stderr)
	}
	if !strings.Contains(stdout, "cells 4: executed 0, cached 4") {
		t.Errorf("resume stdout:\n%s", stdout)
	}
	second, err := os.ReadFile(sumPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Error("resumed summary not byte-identical to cold run")
	}
	// The anchor-fraction axis has two values, so the table renders.
	if !strings.Contains(stdout, "rmse (R) vs anchor_frac") {
		t.Errorf("missing curve table:\n%s", stdout)
	}
}

func TestConvOverride(t *testing.T) {
	spec := writeSpec(t, tinySweep)
	out := t.TempDir()
	// A conv override is semantic, so the same sweep under a different path
	// populates different cache keys: the sparse run's cells are not reused.
	code, _, stderr := runCLI(t, "-sweep", spec, "-out", out, "-conv", "sparse")
	if code != 0 {
		t.Fatalf("conv sparse: code=%d stderr=%s", code, stderr)
	}
	code, stdout, stderr := runCLI(t, "-sweep", spec, "-out", out, "-resume", "-conv", "fft")
	if code != 0 {
		t.Fatalf("conv fft: code=%d stderr=%s", code, stderr)
	}
	if !strings.Contains(stdout, "cells 4: executed 4, cached 0") {
		t.Errorf("fft resume reused sparse cells:\n%s", stdout)
	}
	// Bad names are rejected by spec validation before anything runs.
	if code, _, stderr := runCLI(t, "-sweep", spec, "-conv", "simd"); code != 1 || !strings.Contains(stderr, "simd") {
		t.Errorf("bad conv: code=%d stderr=%q", code, stderr)
	}
}

func TestExpandDryRun(t *testing.T) {
	spec := writeSpec(t, tinySweep)
	code, stdout, stderr := runCLI(t, "-expand", spec)
	if code != 0 {
		t.Fatalf("code=%d stderr=%s", code, stderr)
	}
	lines := strings.Count(strings.TrimSpace(stdout), "\n") + 1
	if lines != 4 {
		t.Errorf("expanded %d cells, want 4:\n%s", lines, stdout)
	}
	if !strings.Contains(stdout, `"algorithm":"centroid"`) || !strings.Contains(stdout, `"key":"`) {
		t.Errorf("expansion lines incomplete:\n%s", stdout)
	}
}

func TestTraceFlag(t *testing.T) {
	spec := writeSpec(t, tinySweep)
	trace := filepath.Join(t.TempDir(), "run.jsonl")
	code, _, stderr := runCLI(t, "-sweep", spec, "-trace", trace, "-workers", "1")
	if code != 0 {
		t.Fatalf("code=%d stderr=%s", code, stderr)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"event":"sweep.start"`, `"event":"sweep.cell.done"`, `"event":"sweep.done"`, `"event":"trial.done"`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("trace missing %s", want)
		}
	}
}

// A trace that loses events (a full device) fails the run with exit 1.
func TestTraceLostEventsFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	spec := writeSpec(t, tinySweep)
	code, _, stderr := runCLI(t, "-sweep", spec, "-trace", "/dev/full", "-workers", "1")
	if code != 1 || !strings.Contains(stderr, "trace:") {
		t.Errorf("code=%d stderr=%q; want 1 and the trace error", code, stderr)
	}
}

func TestTimeoutCancelsButCaches(t *testing.T) {
	spec := writeSpec(t, tinySweep)
	out := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // simulate an immediate SIGINT/-timeout expiry
	var stdout, stderr bytes.Buffer
	code := run(ctx, []string{"-sweep", spec, "-out", out, "-timeout", time.Minute.String()}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "rerun with -resume") {
		t.Errorf("code=%d stderr=%q", code, stderr.String())
	}
}

// syncBuffer is a bytes.Buffer safe for the concurrent writer/reader split of
// the obs-http test: the CLI goroutine writes stderr while the test polls it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestObsHTTPResultsByteIdentical runs the same sweep with and without the
// ops plane attached: observability must not perturb the computation.
func TestObsHTTPResultsByteIdentical(t *testing.T) {
	spec := writeSpec(t, tinySweep)
	plainOut, obsOut := t.TempDir(), t.TempDir()

	code, _, stderr := runCLI(t, "-sweep", spec, "-out", plainOut, "-workers", "1")
	if code != 0 {
		t.Fatalf("plain run: code=%d stderr=%s", code, stderr)
	}
	code, _, stderr = runCLI(t, "-sweep", spec, "-out", obsOut, "-workers", "1",
		"-obs-http", "127.0.0.1:0")
	if code != 0 {
		t.Fatalf("obs run: code=%d stderr=%s", code, stderr)
	}
	if !strings.Contains(stderr, "obs: serving http://") {
		t.Errorf("bound address not announced on stderr:\n%s", stderr)
	}

	plain, err := os.ReadFile(filepath.Join(plainOut, "summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	obsd, err := os.ReadFile(filepath.Join(obsOut, "summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, obsd) {
		t.Error("summary with -obs-http differs from plain run")
	}
}

// bigSweep is slow enough (many BNCL cells) that the ops-plane test can
// scrape the live server mid-run before canceling the sweep.
const bigSweep = `{
	"name": "cli-obs-test",
	"scenarios": [{"N": 60, "Field": 80, "AnchorFrac": 0.2, "Seed": 1}],
	"algorithms": ["bncl-grid"],
	"seeds": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20],
	"trials": 4
}`

// TestObsHTTPServesDuringSweep starts a long sweep with -obs-http, scrapes
// the live endpoints mid-run, then cancels the sweep.
func TestObsHTTPServesDuringSweep(t *testing.T) {
	spec := writeSpec(t, bigSweep)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var stdout bytes.Buffer
	errBuf := &syncBuffer{}
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{
			"-sweep", spec, "-out", t.TempDir(), "-workers", "1",
			"-obs-http", "127.0.0.1:0",
		}, &stdout, errBuf)
	}()

	// The bound address is announced on stderr before the sweep starts.
	addr := ""
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" && time.Now().Before(deadline) {
		if s := errBuf.String(); strings.Contains(s, "obs: serving http://") {
			s = s[strings.Index(s, "obs: serving http://")+len("obs: serving http://"):]
			addr = s[:strings.Index(s, "/")]
		} else {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if addr == "" {
		t.Fatalf("ops server address never appeared on stderr:\n%s", errBuf.String())
	}

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if st, body := get("/healthz"); st != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", st, body)
	}
	if st, body := get("/buildinfo"); st != 200 || !strings.Contains(body, "go_version") {
		t.Errorf("/buildinfo = %d %q", st, body)
	}
	if st, body := get("/metrics"); st != 200 || !strings.Contains(body, "wsnloc_goroutines") {
		t.Errorf("/metrics = %d, missing runtime metrics:\n%s", st, body)
	}

	cancel()
	select {
	case code := <-done:
		// 0 if the sweep managed to finish before the cancel landed.
		if code != 0 && code != 1 {
			t.Errorf("run exit code = %d, want 0 or 1", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not exit after cancel")
	}
}

// TestShardedRunThenMerge drives the distributed workflow end to end
// through the CLI: three shard processes over one output directory, then
// -merge, whose summary.json must be byte-identical to a single-process run
// of the same document.
func TestShardedRunThenMerge(t *testing.T) {
	spec := writeSpec(t, tinySweep)

	single := t.TempDir()
	if code, _, stderr := runCLI(t, "-sweep", spec, "-out", single, "-workers", "1"); code != 0 {
		t.Fatalf("single run: code=%d stderr=%s", code, stderr)
	}
	want, err := os.ReadFile(filepath.Join(single, "summary.json"))
	if err != nil {
		t.Fatal(err)
	}

	out := t.TempDir()
	for idx := 0; idx < 3; idx++ {
		code, stdout, stderr := runCLI(t, "-sweep", spec, "-out", out,
			"-shards", "3", "-shard-index", strconv.Itoa(idx))
		if code != 0 {
			t.Fatalf("shard %d: code=%d stderr=%s", idx, code, stderr)
		}
		if !strings.Contains(stdout, "shard "+strconv.Itoa(idx)+"/3:") {
			t.Errorf("shard %d stdout missing shard line:\n%s", idx, stdout)
		}
		// A shard never writes the full summary.json; its slice goes to
		// summary.<index>.json.
		if _, err := os.Stat(filepath.Join(out, "summary."+strconv.Itoa(idx)+".json")); err != nil {
			t.Errorf("shard %d summary: %v", idx, err)
		}
	}
	if _, err := os.Stat(filepath.Join(out, "summary.json")); !os.IsNotExist(err) {
		t.Errorf("shard runs wrote summary.json prematurely: %v", err)
	}

	code, stdout, stderr := runCLI(t, "-sweep", spec, "-out", out, "-merge")
	if code != 0 {
		t.Fatalf("merge: code=%d stderr=%s", code, stderr)
	}
	if !strings.Contains(stdout, "merged from shard journals") {
		t.Errorf("merge stdout:\n%s", stdout)
	}
	got, err := os.ReadFile(filepath.Join(out, "summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("merged summary not byte-identical to single-process run\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestMergeIncompleteExitsWithMessage: merging before all shards have run
// fails with the distinct not-every-shard-has-finished message.
func TestMergeIncompleteExitsWithMessage(t *testing.T) {
	spec := writeSpec(t, tinySweep)
	out := t.TempDir()
	if code, _, stderr := runCLI(t, "-sweep", spec, "-out", out, "-shards", "3", "-shard-index", "0"); code != 0 {
		t.Fatalf("shard 0: code=%d stderr=%s", code, stderr)
	}
	code, _, stderr := runCLI(t, "-sweep", spec, "-out", out, "-merge")
	if code != 1 || !strings.Contains(stderr, "not every shard has finished") {
		t.Errorf("incomplete merge: code=%d stderr=%q", code, stderr)
	}
}

// TestShardFlagValidation pins the CLI-level sharding errors.
func TestShardFlagValidation(t *testing.T) {
	spec := writeSpec(t, tinySweep)
	out := t.TempDir()
	// Sharding without -out has no shared directory to meet in.
	if code, _, stderr := runCLI(t, "-sweep", spec, "-shards", "2"); code != 1 || !strings.Contains(stderr, "OutDir") {
		t.Errorf("shards without -out: code=%d stderr=%q", code, stderr)
	}
	if code, _, stderr := runCLI(t, "-sweep", spec, "-out", out, "-shards", "2", "-shard-index", "5"); code != 1 || stderr == "" {
		t.Errorf("shard index out of range: code=%d stderr=%q", code, stderr)
	}
	if code, _, stderr := runCLI(t, "-sweep", spec, "-merge"); code != 2 || !strings.Contains(stderr, "-merge requires -out") {
		t.Errorf("merge without -out: code=%d stderr=%q", code, stderr)
	}
}

// TestShardHeldReportsClearly: a second process on a freshly leased shard is
// turned away with the lease-held message.
func TestShardHeldReportsClearly(t *testing.T) {
	spec := writeSpec(t, tinySweep)
	out := t.TempDir()
	lease, _, err := sweep.AcquireShardLease(out, 0, "other-host", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	code, _, stderr := runCLI(t, "-sweep", spec, "-out", out, "-shards", "2", "-shard-index", "0")
	if code != 1 || !strings.Contains(stderr, "another worker is running this shard") {
		t.Errorf("held shard: code=%d stderr=%q", code, stderr)
	}
}
