package serve

import (
	"container/list"
	"fmt"
	"path/filepath"
	"sync"

	"wsnloc/internal/castore"
)

// memo is a bounded most-recently-used response cache: canonical spec hash
// → the exact bytes served before. The bound is what makes it safe to face
// the network: without one, every distinct spec a client ever posts would
// retain its full response bytes for the life of the daemon, an easy
// memory-exhaustion vector at the default 1 MiB body limit.
type memo struct {
	mu    sync.Mutex
	max   int
	order *list.List               // front = most recently used
	items map[string]*list.Element // key → element whose Value is *memoItem
}

type memoItem struct {
	key string
	val []byte
}

// newMemo builds a memo bounded to max entries. max < 0 disables
// memoization entirely: the returned nil memo misses every Get and drops
// every Put.
func newMemo(max int) *memo {
	if max < 0 {
		return nil
	}
	return &memo{max: max, order: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the bytes stored under key, refreshing its recency.
func (m *memo) Get(key string) ([]byte, bool) {
	if m == nil {
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.items[key]
	if !ok {
		return nil, false
	}
	m.order.MoveToFront(el)
	return el.Value.(*memoItem).val, true
}

// Put stores bytes under key, evicting least-recently-used entries beyond
// the bound.
func (m *memo) Put(key string, val []byte) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[key]; ok {
		el.Value.(*memoItem).val = val
		m.order.MoveToFront(el)
		return
	}
	m.items[key] = m.order.PushFront(&memoItem{key: key, val: val})
	for m.order.Len() > m.max {
		oldest := m.order.Back()
		m.order.Remove(oldest)
		delete(m.items, oldest.Value.(*memoItem).key)
	}
}

// Len reports the live entry count.
func (m *memo) Len() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}

// diskMemoVersion is bumped whenever the response wire format changes in a
// way that makes old cached bytes wrong to serve.
const diskMemoVersion = 1

// openDiskMemo opens the disk tier of one endpoint kind's response memo:
// exact response bytes under <dir>/<kind>/<hh>/<hash>.resp, so a restart
// keeps hot results warm. Empty dir disables the tier (a nil store).
func openDiskMemo(dir, kind string) (*castore.Store, error) {
	if dir == "" {
		return nil, nil
	}
	st, err := castore.Open(filepath.Join(dir, kind), ".resp", diskMemoVersion)
	if err != nil {
		return nil, fmt.Errorf("serve: opening response memo: %w", err)
	}
	return st, nil
}

// Cache tiers reported in the X-Wsnloc-Cache-Tier header and the per-tier
// hit counters.
const (
	tierMem  = "mem"
	tierDisk = "disk"
)

// tieredMemo layers the in-memory LRU over the optional disk store: Get
// checks memory first, falls back to disk (promoting hits into memory so
// the next duplicate skips the file read), and Put writes through to both.
type tieredMemo struct {
	mem  *memo
	disk *castore.Store
}

// Get returns the cached bytes and the tier that answered ("mem" | "disk").
func (t *tieredMemo) Get(key string) ([]byte, string, bool) {
	if v, ok := t.mem.Get(key); ok {
		return v, tierMem, true
	}
	if v, ok := t.disk.Get(key); ok {
		t.mem.Put(key, v)
		return v, tierDisk, true
	}
	return nil, "", false
}

// Put stores the bytes in every tier.
func (t *tieredMemo) Put(key string, val []byte) {
	t.mem.Put(key, val)
	t.disk.Put(key, val) // best-effort; a failed write is a cold restart, not an error
}
