package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"wsnloc/internal/metrics"
)

// Per-shard journals. A sharded run appends one self-validating JSON line
// per resolved cell (computed or cache-hit) to journal.<shard>.jsonl, so
// the output directory accumulates a durable, append-only record of every
// completed cell even when workers die between cache writes. Merge folds
// these journals — plus the content-addressed cache itself — back into the
// full sweep result; because every record carries the cell's key and a
// checksum over its own content, a merge either reproduces the canonical
// summary byte-for-byte or fails with a typed error, never silently drifts.
//
// Torn lines are expected, not exceptional: a SIGKILL mid-write leaves a
// partial record (possibly mid-file after a resume appends past it), which
// fails to parse or fails its checksum and is skipped — the cell it named
// is recovered from a duplicate record or from the cache.

// journalVersion is the per-shard journal line schema version.
const journalVersion = 1

// ShardJournalName returns the journal filename of one shard.
func ShardJournalName(shard int) string {
	return fmt.Sprintf("journal.%d.jsonl", shard)
}

// cellRecord is one journal line: a completed cell's identity and pooled
// evaluation. Sum is the record's own checksum (sha-256 prefix over the
// canonical encoding with Sum empty), so corruption that still parses as
// JSON is detected rather than merged.
type cellRecord struct {
	V      int          `json:"v"`
	Engine int          `json:"engine"`
	Cell   int          `json:"cell"`
	Key    string       `json:"key"`
	Trials int          `json:"trials"`
	Eval   metrics.Eval `json:"eval"`
	Sum    string       `json:"sum,omitempty"`
}

// checksum returns the record's content checksum (16 hex digits).
func (r cellRecord) checksum() (string, error) {
	r.Sum = ""
	data, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("sweep: journal record: %w", err)
	}
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:8]), nil
}

// valid reports whether the record is an authentic line of the current
// journal schema: version and engine match and the checksum verifies.
func (r cellRecord) valid() bool {
	if r.V != journalVersion || r.Engine != EngineVersion || r.Sum == "" {
		return false
	}
	sum, err := r.checksum()
	return err == nil && sum == r.Sum
}

// shardJournal is the engine's append-only per-shard record writer. Safe
// for concurrent use by the cell workers. The first write error latches
// and fails the sweep at close.
type shardJournal struct {
	mu  sync.Mutex
	f   *os.File
	err error
}

// openShardJournal opens (creating or appending) one shard's journal. If a
// previous worker of this shard was killed mid-write, the file may end in
// a torn partial line; a newline is appended first so this run's records
// never glue onto the wreckage.
func openShardJournal(dir string, shard int) (*shardJournal, error) {
	path := filepath.Join(dir, ShardJournalName(shard))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: opening shard journal: %w", err)
	}
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		last := make([]byte, 1)
		if _, err := f.ReadAt(last, st.Size()-1); err == nil && last[0] != '\n' {
			if _, err := f.Write([]byte("\n")); err != nil {
				f.Close()
				return nil, fmt.Errorf("sweep: repairing shard journal: %w", err)
			}
		}
	}
	return &shardJournal{f: f}, nil
}

// record appends one completed cell. Duplicates across resumed runs are
// fine: records are idempotent (equal key implies equal content) and Merge
// deduplicates by key.
func (j *shardJournal) record(index int, c Cell, key string, eval metrics.Eval) {
	r := cellRecord{
		V: journalVersion, Engine: EngineVersion,
		Cell: index, Key: key, Trials: c.Trials, Eval: eval,
	}
	sum, err := r.checksum()
	if err == nil {
		r.Sum = sum
	}
	var data []byte
	if err == nil {
		data, err = json.Marshal(r)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if err != nil {
		j.err = err
		return
	}
	if _, werr := j.f.Write(append(data, '\n')); werr != nil {
		j.err = werr
	}
}

// Close flushes and reports the first record/write error, if any.
func (j *shardJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	cerr := j.f.Close()
	if j.err != nil {
		return j.err
	}
	return cerr
}

// readJournalRecords parses one journal file's bytes into its authentic
// records. Lines that fail to parse or fail their checksum — torn writes,
// corruption, foreign formats — are skipped and counted, never fatal: the
// consistency decisions belong to Merge, which can fall back to the cache.
func readJournalRecords(data []byte) (recs []cellRecord, skipped int) {
	for _, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var r cellRecord
		if err := json.Unmarshal(line, &r); err != nil || !r.valid() {
			skipped++
			continue
		}
		recs = append(recs, r)
	}
	return recs, skipped
}

// Merge folds the per-shard journals and the content-addressed cache of
// one or more output directories back into the sweep's full result. Every
// cell of the expanded grid is resolved journal-first (authentic records,
// deduplicated by key), then from the cache; the reconstructed result is a
// pure function of the cell evaluations, so its Summary is byte-identical
// to the one a single-process run of the same sweep document produces.
//
// Failure modes are typed: a journal record that contradicts the grid
// (wrong cell index or trial count for its key) or conflicts with another
// record of the same cell wraps ErrBadJournal; a grid with unresolved
// cells (some shard has not run or finished) wraps ErrIncomplete. Torn or
// corrupted journal lines are skipped — they are the expected residue of a
// killed worker, and their cells are recovered from duplicates or the
// cache. Merge never executes cells.
func Merge(sw Spec, dirs ...string) (*Result, error) {
	sw = sw.Normalize()
	cells, err := sw.Cells() // validates
	if err != nil {
		return nil, err
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("sweep: %w: merge needs at least one output directory", ErrIncomplete)
	}

	keys := make([]string, len(cells))
	byKey := make(map[string]int, len(cells))
	for i, c := range cells {
		if keys[i], err = c.Key(); err != nil {
			return nil, fmt.Errorf("sweep: cell %d: %w", i, err)
		}
		byKey[keys[i]] = i
	}

	evals := make(map[int]metrics.Eval, len(cells))
	resolve := func(idx int, eval metrics.Eval, source string) error {
		if prev, ok := evals[idx]; ok {
			a, aerr := json.Marshal(prev)
			b, berr := json.Marshal(eval)
			if aerr != nil || berr != nil || !bytes.Equal(a, b) {
				return fmt.Errorf("%w: conflicting results for cell %d (key %.12s…, %s)",
					ErrBadJournal, idx, keys[idx], source)
			}
			return nil
		}
		evals[idx] = eval
		return nil
	}

	for _, dir := range dirs {
		paths, err := filepath.Glob(filepath.Join(dir, "journal.*.jsonl"))
		if err != nil {
			return nil, fmt.Errorf("sweep: merge: %w", err)
		}
		sort.Strings(paths)
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, fmt.Errorf("sweep: merge: %w", err)
			}
			recs, _ := readJournalRecords(data)
			for _, r := range recs {
				idx, ok := byKey[r.Key]
				if !ok {
					// A record for a cell outside this grid: another sweep's
					// journal sharing the directory. Harmless — it cannot
					// feed this summary — so skip rather than fail.
					continue
				}
				if r.Cell != idx || r.Trials != cells[idx].Trials {
					return nil, fmt.Errorf("%w: record in %s names key %.12s… as cell %d/%d trials, grid says cell %d/%d",
						ErrBadJournal, filepath.Base(path), r.Key, r.Cell, r.Trials, idx, cells[idx].Trials)
				}
				if err := resolve(idx, r.Eval, filepath.Base(path)); err != nil {
					return nil, err
				}
			}
		}
		// Cache fallback: cells whose journal record was torn away (or that
		// a worker cached but never journaled) are still durable as objects.
		cache, err := OpenCache(dir)
		if err != nil {
			return nil, err
		}
		for idx, key := range keys {
			if _, ok := evals[idx]; ok {
				continue
			}
			if e, ok := cache.Load(key); ok {
				if err := resolve(idx, e.Eval, "cache"); err != nil {
					return nil, err
				}
			}
		}
	}

	missing := 0
	first := -1
	for idx := range cells {
		if _, ok := evals[idx]; !ok {
			if first < 0 {
				first = idx
			}
			missing++
		}
	}
	if missing > 0 {
		return nil, fmt.Errorf("%w: %d of %d cells unresolved (first missing: cell %d, key %.12s…) — run the missing shards, then merge again",
			ErrIncomplete, missing, len(cells), first, keys[first])
	}

	out := &Result{Spec: sw, Cached: len(cells)}
	out.Cells = make([]CellResult, len(cells))
	for idx, c := range cells {
		out.Cells[idx] = CellResult{
			Index: idx, Cell: c, Key: keys[idx], Cached: true, Eval: evals[idx],
		}
	}
	return out, nil
}
