package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wsnloc/internal/alg"
	"wsnloc/internal/metrics"
)

func testEntry(t *testing.T) *Entry {
	t.Helper()
	// Normalized spec: MarshalJSON normalizes on write, so a non-normalized
	// one would (correctly) not round-trip field-for-field.
	c := Cell{
		Spec:   alg.Spec{Algorithm: "centroid", Scenario: alg.Scenario{N: 30, Seed: 1}, Seed: 2}.Normalize(),
		Trials: 2,
	}
	key, err := c.Key()
	if err != nil {
		t.Fatal(err)
	}
	return &Entry{
		Key: key, Engine: EngineVersion, Spec: c.Spec, Trials: c.Trials,
		Eval: metrics.Eval{
			Errors: []float64{1.25, 3.5}, R: 15, Unknowns: 27, LocalizedCount: 2,
			Messages: 120, Bytes: 2400, Nodes: 30, Rounds: 4, Trials: 2,
		},
	}
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(t)
	if _, ok := c.Load(e.Key); ok {
		t.Fatal("hit before store")
	}
	if err := c.Store(e); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Load(e.Key)
	if !ok {
		t.Fatal("miss after store")
	}
	if !reflect.DeepEqual(got, e) {
		t.Errorf("round-trip drifted:\n got %+v\nwant %+v", got, e)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
}

// A corrupt, truncated, or stale-engine entry must read as a miss (the
// engine recomputes and overwrites), never as an error or a bogus hit.
func TestCacheBadEntriesAreMisses(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(t)
	if err := c.Store(e); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "objects", e.Key[:2], e.Key+".json")

	if err := os.WriteFile(path, []byte(`{"key":"truncated`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load(e.Key); ok {
		t.Error("corrupt entry hit")
	}

	stale := *e
	stale.Engine = EngineVersion + 1
	if err := c.Store(&stale); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load(e.Key); ok {
		t.Error("stale engine version hit")
	}

	// An entry whose numbers changed but which still parses: one digit of
	// its errors rewritten in place. The body checksum makes it a miss.
	if err := c.Store(e); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(good, []byte(`"Errors":[1.25,`), []byte(`"Errors":[9.25,`), 1)
	if bytes.Equal(tampered, good) {
		t.Fatal("test entry has no errors field to tamper with")
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Load(e.Key); ok {
		t.Errorf("tampered entry hit with errors %v", got.Eval.Errors)
	}

	// An entry in the pre-castore layout (bare JSON, no header line) is a
	// miss, not an error.
	bare, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(bare, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load(e.Key); ok {
		t.Error("bare-JSON entry hit")
	}

	mismatched := *e
	mismatched.Key = "00deadbeef"
	if err := c.Store(&mismatched); err != nil {
		t.Fatal(err)
	}
	// Stored under its claimed key; loading the original key still misses.
	if _, ok := c.Load(e.Key); ok {
		t.Error("mismatched entry hit")
	}

	// Re-storing the good entry heals the slot.
	if err := c.Store(e); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load(e.Key); !ok {
		t.Error("healed entry missed")
	}
}

func TestCacheMalformedKey(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "x", "abcd", "ab/../../cdef01"} {
		if _, ok := c.Load(key); ok {
			t.Errorf("malformed key %q hit", key)
		}
		if err := c.Store(&Entry{Key: key}); err == nil {
			t.Errorf("malformed key %q stored", key)
		}
	}
}
