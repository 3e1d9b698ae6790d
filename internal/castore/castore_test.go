package castore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestRoundtrip(t *testing.T) {
	st, err := Open(t.TempDir(), ".resp", 1)
	if err != nil {
		t.Fatal(err)
	}
	key := "abc123def456"
	body := []byte(`{"answer":42}`)
	if _, ok := st.Get(key); ok {
		t.Fatal("hit before Put")
	}
	if err := st.Put(key, body); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("Get = %q, want %q", got, body)
	}
	// Overwrite with the same key is a no-op rewrite, still byte-stable.
	if err := st.Put(key, body); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get(key); !ok || !bytes.Equal(got, body) {
		t.Fatal("entry unstable after re-Put")
	}
}

// TestCorruptionIsMiss pins the self-validating read: flipped body bytes, a
// wrong key, a truncated file, or an object written under another version
// must read as a miss, never as a wrong answer.
func TestCorruptionIsMiss(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, ".resp", 1)
	if err != nil {
		t.Fatal(err)
	}
	key := "deadbeef0011"
	if err := st.Put(key, []byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	path := st.Path(key)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, mutate(append([]byte(nil), orig...)), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := st.Get(key); ok {
				t.Fatalf("corrupted entry served as hit: %q", got)
			}
		})
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	corrupt("flipped-body-byte", func(b []byte) []byte {
		b[len(b)-1] ^= 0xff
		return b
	})
	corrupt("truncated", func(b []byte) []byte { return b[:len(b)-3] })
	corrupt("garbage-header", func(b []byte) []byte { return append([]byte("not json\n"), b...) })
	corrupt("empty", func([]byte) []byte { return nil })

	// Sanity: the restored original still hits.
	if _, ok := st.Get(key); !ok {
		t.Fatal("restored entry should hit")
	}

	// The same object read through a store of another version is a miss.
	v2, err := Open(dir, ".resp", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v2.Get(key); ok {
		t.Fatal("object of version 1 served as a version-2 hit")
	}

	// A key whose stored header names a different key is a miss too.
	otherPath := st.Path("feedface2233")
	if err := os.MkdirAll(filepath.Dir(otherPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(otherPath, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("feedface2233"); ok {
		t.Fatal("entry with mismatched header key served as hit")
	}
}
