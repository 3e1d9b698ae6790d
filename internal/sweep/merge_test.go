package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// summaryBytes renders a result's summary exactly as the CLI writes it.
func summaryBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Summary().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runShards executes every shard of an S-way split of sw against dir.
func runShards(t *testing.T, sw Spec, dir string, shards int) {
	t.Helper()
	for idx := 0; idx < shards; idx++ {
		if _, err := Run(sw, Options{
			OutDir: dir, Workers: 2, Resume: true, Shards: shards, ShardIndex: idx,
		}); err != nil {
			t.Fatalf("shard %d: %v", idx, err)
		}
	}
}

// TestMergeShardedMatchesSingleProcess: a 3-shard run of the cheap sweep,
// merged, is byte-identical to one process walking the whole grid.
func TestMergeShardedMatchesSingleProcess(t *testing.T) {
	sw := cheapSweep()
	ref, err := Run(sw, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := summaryBytes(t, ref)

	dir := t.TempDir()
	runShards(t, sw, dir, 3)
	merged, err := Merge(sw, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := summaryBytes(t, merged); !bytes.Equal(got, want) {
		t.Errorf("merged summary drifted from single-process run\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestMergeFromJournalsAlone: with the object cache deleted, the per-shard
// journals are sufficient to reconstruct the identical summary.
func TestMergeFromJournalsAlone(t *testing.T) {
	sw := cheapSweep()
	ref, err := Run(sw, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := summaryBytes(t, ref)

	dir := t.TempDir()
	runShards(t, sw, dir, 3)
	if err := os.RemoveAll(filepath.Join(dir, "objects")); err != nil {
		t.Fatal(err)
	}
	merged, err := Merge(sw, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := summaryBytes(t, merged); !bytes.Equal(got, want) {
		t.Error("journal-only merge drifted from single-process run")
	}
}

// TestMergeFromCacheAlone: with every journal deleted, the content-addressed
// cache alone reconstructs the identical summary.
func TestMergeFromCacheAlone(t *testing.T) {
	sw := cheapSweep()
	ref, err := Run(sw, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := summaryBytes(t, ref)

	dir := t.TempDir()
	runShards(t, sw, dir, 3)
	journals, err := filepath.Glob(filepath.Join(dir, "journal.*.jsonl"))
	if err != nil || len(journals) == 0 {
		t.Fatalf("journals: %v (%d found)", err, len(journals))
	}
	for _, j := range journals {
		if err := os.Remove(j); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := Merge(sw, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := summaryBytes(t, merged); !bytes.Equal(got, want) {
		t.Error("cache-only merge drifted from single-process run")
	}
}

// TestMergeIncomplete: merging before every shard has run reports the typed
// incompleteness error, never a partial summary.
func TestMergeIncomplete(t *testing.T) {
	sw := cheapSweep()
	dir := t.TempDir()
	const shards = 3
	res, err := Run(sw, Options{OutDir: dir, Workers: 1, Shards: shards, ShardIndex: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped == 0 {
		t.Skip("shard 0 owns the whole grid under this hash split")
	}
	if _, err := Merge(sw, dir); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("merge of one shard: got %v, want ErrIncomplete", err)
	}
	if _, err := Merge(sw, t.TempDir()); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("merge of empty dir: got %v, want ErrIncomplete", err)
	}
}

// TestMergeRejectsInconsistentJournal: an authentic record whose cell index
// or trial count contradicts the expanded grid — a journal from a different
// sweep document — is a typed ErrBadJournal, and so are two authentic
// records that disagree about one cell's result.
func TestMergeRejectsInconsistentJournal(t *testing.T) {
	sw := cheapSweep()
	ref, err := Run(sw, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	writeJournal := func(t *testing.T, dir string, recs []cellRecord) {
		t.Helper()
		var buf bytes.Buffer
		for _, r := range recs {
			sum, err := r.checksum()
			if err != nil {
				t.Fatal(err)
			}
			r.Sum = sum
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		if err := os.WriteFile(filepath.Join(dir, ShardJournalName(0)), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	authentic := make([]cellRecord, len(ref.Cells))
	for i, cr := range ref.Cells {
		authentic[i] = cellRecord{
			V: journalVersion, Engine: EngineVersion,
			Cell: cr.Index, Key: cr.Key, Trials: cr.Cell.Trials, Eval: cr.Eval,
		}
	}

	t.Run("wrong cell index", func(t *testing.T) {
		recs := append([]cellRecord(nil), authentic...)
		recs[0].Cell = recs[0].Cell + 1
		dir := t.TempDir()
		writeJournal(t, dir, recs)
		if _, err := Merge(sw, dir); !errors.Is(err, ErrBadJournal) {
			t.Fatalf("got %v, want ErrBadJournal", err)
		}
	})
	t.Run("wrong trial count", func(t *testing.T) {
		recs := append([]cellRecord(nil), authentic...)
		recs[0].Trials = recs[0].Trials + 5
		dir := t.TempDir()
		writeJournal(t, dir, recs)
		if _, err := Merge(sw, dir); !errors.Is(err, ErrBadJournal) {
			t.Fatalf("got %v, want ErrBadJournal", err)
		}
	})
	t.Run("conflicting duplicate", func(t *testing.T) {
		recs := append([]cellRecord(nil), authentic...)
		forged := authentic[0]
		forged.Eval.Messages += 7
		recs = append(recs, forged)
		dir := t.TempDir()
		writeJournal(t, dir, recs)
		if _, err := Merge(sw, dir); !errors.Is(err, ErrBadJournal) {
			t.Fatalf("got %v, want ErrBadJournal", err)
		}
	})
	t.Run("foreign keys are ignored", func(t *testing.T) {
		recs := append([]cellRecord(nil), authentic...)
		foreign := authentic[0]
		foreign.Key = "feedfacefeedfacefeedfacefeedfacefeedfacefeedfacefeedfacefeedface"
		recs = append(recs, foreign)
		dir := t.TempDir()
		writeJournal(t, dir, recs)
		merged, err := Merge(sw, dir)
		if err != nil {
			t.Fatalf("foreign record broke the merge: %v", err)
		}
		if got, want := summaryBytes(t, merged), summaryBytes(t, ref); !bytes.Equal(got, want) {
			t.Error("foreign record changed the summary")
		}
	})
}

// TestGoldenSummaryShardedMerge is the acceptance gate: a 3-shard run of
// the golden sweep spec, merged, reproduces the committed single-process
// golden summary byte-for-byte.
func TestGoldenSummaryShardedMerge(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "summary.json"))
	if err != nil {
		t.Skipf("golden file not generated yet: %v", err)
	}
	sw := goldenSweep()
	dir := t.TempDir()
	runShards(t, sw, dir, 3)
	merged, err := Merge(sw, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := summaryBytes(t, merged); !bytes.Equal(got, want) {
		t.Errorf("3-shard merged summary drifted from the committed golden\ngot:\n%s", got)
	}
}

// TestGoldenSummaryShardCrashResume is the crash-resume acceptance gate:
// one shard of the golden sweep is killed mid-journal — its journal
// truncated at a random byte (the torn partial line of a SIGKILL) and the
// cache objects of its unjournaled cells removed — then restarted with
// resume; the merged summary must still match the committed golden bytes.
func TestGoldenSummaryShardCrashResume(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "summary.json"))
	if err != nil {
		t.Skipf("golden file not generated yet: %v", err)
	}
	sw := goldenSweep()
	dir := t.TempDir()
	const shards = 3

	// Shard 0 completes cleanly.
	if _, err := Run(sw, Options{OutDir: dir, Workers: 2, Shards: shards, ShardIndex: 0}); err != nil {
		t.Fatal(err)
	}

	// Shard 1 completes, then we rewind its on-disk state to what a SIGKILL
	// mid-run would have left behind.
	res1, err := Run(sw, Options{OutDir: dir, Workers: 1, Shards: shards, ShardIndex: 1})
	if err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, ShardJournalName(1))
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
		lines = lines[:n-1]
	}
	if len(lines) == 0 {
		t.Skip("shard 1 owns no cells under this hash split")
	}
	// Keep half the records whole and tear into the middle of the next line
	// at a (seeded) random byte — the torn partial write of a kill.
	r := rand.New(rand.NewSource(42))
	keep := len(lines) / 2
	torn := 0
	if keep < len(lines) {
		torn = 1 + r.Intn(len(lines[keep])-1)
	}
	cut := 0
	for _, l := range lines[:keep] {
		cut += len(l)
	}
	if err := os.Truncate(jpath, int64(cut+torn)); err != nil {
		t.Fatal(err)
	}
	// Cells journaled past the tear never finished as far as a resume can
	// trust the journal — but the torn line's own cell DID reach the cache
	// (store precedes journal). Model the worst case: drop the cache
	// objects of every record past the tear except the torn one.
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := keep + 1; i < len(lines); i++ {
		recs, _ := readJournalRecords(lines[i])
		for _, rec := range recs {
			if err := os.Remove(cache.store.Path(rec.Key)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Merging now must refuse: the grid is incomplete (unless the tear
	// landed after shard 1's last cell and shard 2 owns nothing, which the
	// golden split does not produce).
	if _, err := Merge(sw, dir); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("merge of crashed state: got %v, want ErrIncomplete", err)
	}

	// Restart shard 1 (resume), then run shard 2.
	res1b, err := Run(sw, Options{OutDir: dir, Workers: 2, Resume: true, Shards: shards, ShardIndex: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res1b.Cells) != len(res1.Cells) {
		t.Fatalf("resumed shard resolved %d cells, first run %d", len(res1b.Cells), len(res1.Cells))
	}
	if _, err := Run(sw, Options{OutDir: dir, Workers: 2, Shards: shards, ShardIndex: 2}); err != nil {
		t.Fatal(err)
	}

	merged, err := Merge(sw, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := summaryBytes(t, merged); !bytes.Equal(got, want) {
		t.Errorf("crash-resumed 3-shard merge drifted from the committed golden\ngot:\n%s", got)
	}
}

// TestShardConcurrentWorkersLeaseStealing races six worker "processes" over
// a 2-shard grid against one cache directory, with pre-planted stale leases
// so the takeover path executes, under the race detector in CI. Every
// worker must finish (possibly after ErrShardHeld retries), no two
// authentic journal records may disagree about a cell, and the merged
// summary must match the single-process run byte-for-byte.
func TestShardConcurrentWorkersLeaseStealing(t *testing.T) {
	sw := cheapSweep()
	ref, err := Run(sw, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := summaryBytes(t, ref)

	dir := t.TempDir()
	const shards = 2
	// Plant stale leases: a previous fleet that died without releasing.
	old := time.Now().Add(-time.Hour)
	for i := 0; i < shards; i++ {
		if _, _, err := AcquireShardLease(dir, i, "corpse", time.Minute); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(leasePath(dir, i), old, old); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 6
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for attempt := 0; attempt < 200; attempt++ {
				_, err := Run(sw, Options{
					OutDir: dir, Workers: 2, Resume: true,
					Shards: shards, ShardIndex: g % shards,
					LeaseTTL: 250 * time.Millisecond,
					Owner:    fmt.Sprintf("worker-%d", g),
				})
				if errors.Is(err, ErrShardHeld) {
					time.Sleep(10 * time.Millisecond)
					continue
				}
				errs[g] = err
				return
			}
			errs[g] = errors.New("shard held through every retry")
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", g, err)
		}
	}

	// No cell computed with conflicting results: every authentic record of
	// one key carries the same evaluation (Merge re-verifies this and would
	// fail with ErrBadJournal otherwise).
	journals, err := filepath.Glob(filepath.Join(dir, "journal.*.jsonl"))
	if err != nil || len(journals) != shards {
		t.Fatalf("journals: %v (%d found, want %d)", err, len(journals), shards)
	}
	merged, err := Merge(sw, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := summaryBytes(t, merged); !bytes.Equal(got, want) {
		t.Error("concurrent sharded run drifted from the single-process summary")
	}
}
