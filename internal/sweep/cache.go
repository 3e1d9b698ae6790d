package sweep

import (
	"encoding/json"
	"fmt"
	"path/filepath"

	"wsnloc/internal/alg"
	"wsnloc/internal/castore"
	"wsnloc/internal/metrics"
)

// Entry is one persisted cell result. The spec and trial count ride along so
// an entry is self-describing (auditable with jq, rebuildable into summaries
// without the original sweep document).
type Entry struct {
	Key    string       `json:"key"`
	Engine int          `json:"engine_version"`
	Spec   alg.Spec     `json:"spec"`
	Trials int          `json:"trials"`
	Eval   metrics.Eval `json:"eval"`
}

// Cache is the on-disk cell result store: each Entry, JSON-encoded, is one
// castore object under objects/<first two hash bytes>/<hash>.json. Writes
// are atomic and every read checks the object's key, engine version and
// body SHA-256, so a killed sweep or a damaged file never leaves an entry
// a resume could trust. Safe for concurrent use by the engine's workers.
type Cache struct {
	store *castore.Store
}

// OpenCache opens (creating if needed) the cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	store, err := castore.Open(filepath.Join(dir, "objects"), ".json", EngineVersion)
	if err != nil {
		return nil, fmt.Errorf("sweep: opening cache: %w", err)
	}
	return &Cache{store: store}, nil
}

// Load returns the entry stored under key, or ok=false when absent,
// unreadable, or inconsistent (wrong key, engine version or checksum — e.g.
// a file from an older engine or a corrupted write). A bad entry is a miss,
// never an error: the engine just recomputes and overwrites it.
func (c *Cache) Load(key string) (*Entry, bool) {
	data, ok := c.store.Get(key)
	if !ok {
		return nil, false
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, false
	}
	if e.Key != key || e.Engine != EngineVersion {
		return nil, false
	}
	return &e, true
}

// Store persists the entry under its key atomically.
func (c *Cache) Store(e *Entry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("sweep: cache store: %w", err)
	}
	if err := c.store.Put(e.Key, append(data, '\n')); err != nil {
		return fmt.Errorf("sweep: cache store: %w", err)
	}
	return nil
}

// Len reports how many entries the cache currently holds (test/diagnostic
// helper; walks the object tree).
func (c *Cache) Len() int {
	return c.store.Len()
}
