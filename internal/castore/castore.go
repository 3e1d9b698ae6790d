// Package castore is a content-addressed file store: one file per key,
// written atomically (temp file + rename) and validated on every read, so a
// crash, a damaged disk or a file in another format reads as a miss, never
// as a wrong answer. Both wsnlocd's disk memo and the sweep cell cache use
// it. An object lives at <dir>/<first two key chars>/<key><ext> and is one
// JSON header line followed by the raw body:
//
//	{"key":"<key>","sha256":"<hex of body>","version":<version>}\n
//	<body>
package castore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// minKeyLen is the shortest key a store accepts; temp files are named
// after the key's first eight characters.
const minKeyLen = 8

// Store is one content-addressed directory, safe for concurrent use. A nil
// *Store misses every Get and drops every Put.
type Store struct {
	dir     string
	ext     string
	version int
}

// header is the self-validation preamble of one object.
type header struct {
	Key     string `json:"key"`
	SHA256  string `json:"sha256"`
	Version int    `json:"version"`
}

// Open opens (creating if needed) the store rooted at dir, whose objects
// end in ext. Objects written under another version read as misses.
func Open(dir, ext string, version int) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("castore: %w", err)
	}
	return &Store{dir: dir, ext: ext, version: version}, nil
}

// validKey reports whether key can name an object: at least minKeyLen
// lowercase hex characters, so it cannot escape the fan-out directory.
func validKey(key string) bool {
	if len(key) < minKeyLen {
		return false
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Path returns the object file of key, which must be a valid key.
func (s *Store) Path(key string) string {
	return filepath.Join(s.dir, key[:2], key+s.ext)
}

func (s *Store) header(key string, body []byte) header {
	sum := sha256.Sum256(body)
	return header{Key: key, SHA256: hex.EncodeToString(sum[:]), Version: s.version}
}

// Get returns the body stored under key. A missing, torn, corrupted,
// foreign or other-version object is a miss, never an error.
func (s *Store) Get(key string) ([]byte, bool) {
	if s == nil || !validKey(key) {
		return nil, false
	}
	data, err := os.ReadFile(s.Path(key))
	if err != nil {
		return nil, false
	}
	line, body, ok := bytes.Cut(data, []byte{'\n'})
	if !ok {
		return nil, false
	}
	var hdr header
	if json.Unmarshal(line, &hdr) != nil || hdr != s.header(key, body) {
		return nil, false
	}
	return body, true
}

// Put stores body under key atomically. A malformed key is an error.
func (s *Store) Put(key string, body []byte) error {
	if s == nil {
		return nil
	}
	if !validKey(key) {
		return fmt.Errorf("castore: malformed key %q", key)
	}
	hdr, _ := json.Marshal(s.header(key, body)) // two strings and an int always encode
	path := s.Path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("castore: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+key[:minKeyLen]+"-*")
	if err != nil {
		return fmt.Errorf("castore: %w", err)
	}
	_, werr := tmp.Write(append(append(hdr, '\n'), body...))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("castore: write %s: %v/%v", path, werr, cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("castore: %w", err)
	}
	return nil
}

// Len reports how many objects the store holds (test/diagnostic helper;
// walks the fan-out tree).
func (s *Store) Len() int {
	n := 0
	filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == s.ext {
			n++
		}
		return nil
	})
	return n
}
