// Package store is the on-disk, content-addressed experiment result store.
//
// Every completed simulation becomes a durable, addressable artifact: the
// key is the SHA-256 of the canonical encoding of the run's request (the
// harness derives it — request coordinates plus every option that reaches
// the simulator, prefixed with the store schema version), and the value is
// the run's full sim.Result JSON plus an optional sharing-profiler report.
// Capacity-study campaigns are large config sweeps re-run with small
// deltas; with the store underneath the scheduler, regenerating one figure
// re-simulates only the cells that actually changed.
//
// Layout on disk:
//
//	<dir>/objects/<k[:2]>/<k>.json  one entry per key, written atomically
//	<dir>/quarantine/<k>.bad        corrupt entries moved aside, never fatal
//
// The objects directory is the whole store: there is no index or other
// shared bookkeeping file, so a Store value holds only its directory and
// any number of Store values — in one process or in many — may read and
// write one directory at once. Each sees every object another has written
// as soon as its rename lands.
//
// Durability and corruption policy: object files are written to a temp
// file and renamed into place, so a crash never leaves a half-written
// entry at its final path. An unreadable or inconsistent entry (bad JSON,
// schema mismatch, key that does not match its own request preimage) is
// quarantined on access and treated as a miss — the store degrades to
// re-simulation, it does not fail.
//
// Byte-identity: Get returns the raw object file bytes alongside the
// decoded entry, so every hit of the same key yields the same bytes.
//
// Location independence: object files carry no store-local state, so the
// same entry stored in two store directories is the same bytes.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Schema versions the store layout and key derivation. It is part of every
// key's preimage and every entry body: bumping it invalidates (but does not
// delete) every existing entry, the right failure mode when an encoding
// changes meaning.
const Schema = "hintm-store/v1"

const (
	objectsDir    = "objects"
	quarantineDir = "quarantine"
)

// Key returns the content address for a canonical request preimage: the
// hex SHA-256 of the bytes.
func Key(preimage []byte) string {
	sum := sha256.Sum256(preimage)
	return hex.EncodeToString(sum[:])
}

// validKey reports whether key has the form Key returns, so it names a
// file inside the objects directory and nowhere else.
func validKey(key string) bool {
	return len(key) == 2*sha256.Size && strings.Trim(key, "0123456789abcdef") == ""
}

// Entry is one stored run. Request carries the canonical key preimage and
// Result the run's sim.Result encoding; both stay raw JSON here so the
// store has no dependency on the simulator's types and recalled bytes are
// exactly the stored bytes.
type Entry struct {
	Schema  string          `json:"schema"`
	Key     string          `json:"key"`
	Request json.RawMessage `json:"request"`
	Result  json.RawMessage `json:"result"`
	// Profile is the run's sharing-profiler report, for the requests that
	// carry one (Fig. 1's InfCap cells); absent everywhere else, so those
	// objects encode exactly as they did before the field existed.
	Profile json.RawMessage `json:"profile,omitempty"`
}

// IndexEntry is List's per-object summary: the key and the object file's
// size in bytes.
type IndexEntry struct {
	Key  string `json:"key"`
	Size int64  `json:"size"`
}

// Store is a handle on one store directory. It is safe for concurrent use
// by any number of goroutines, and other Store values, in this process or
// another, may use the same directory at the same time.
type Store struct {
	dir string
}

// Open opens (creating if needed) the store rooted at dir. It fails only on
// I/O errors creating the layout; content is checked object by object, as
// Get reads it.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, objectsDir), filepath.Join(dir, quarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	return &Store{dir: dir}, nil
}

// validate checks one object file body against its expected key.
func validate(data []byte, key string) (*Entry, bool) {
	var e Entry
	if json.Unmarshal(data, &e) != nil || e.Schema != Schema || e.Key != key || Key(e.Request) != key {
		return nil, false
	}
	return &e, true
}

func (s *Store) objectPath(key string) string {
	return filepath.Join(s.dir, objectsDir, key[:2], key+".json")
}

// Put stores an entry, deriving its key from the request preimage (callers
// cannot mis-key an entry), as one atomic object write (temp file +
// rename). It returns the assigned key; re-putting an existing key
// replaces the object, and a concurrent reader sees the old or the new
// file, never a mix.
func (s *Store) Put(e Entry) (string, error) {
	// The request preimage is compacted before hashing so the bytes that
	// come back out of the object file (encoding/json compacts embedded
	// RawMessages) still hash to the entry's key — Get re-verifies exactly
	// that equation.
	var compact bytes.Buffer
	if err := json.Compact(&compact, e.Request); err != nil {
		return "", fmt.Errorf("store: put: request preimage: %w", err)
	}
	e.Request = json.RawMessage(bytes.Clone(compact.Bytes()))
	key := Key(e.Request)
	e.Schema = Schema
	e.Key = key
	data, err := json.Marshal(&e)
	if err != nil {
		return "", fmt.Errorf("store: put: %w", err)
	}
	data = append(data, '\n')
	if err := atomicWrite(s.objectPath(key), data); err != nil {
		return "", fmt.Errorf("store: put %s: %w", key, err)
	}
	return key, nil
}

// Get returns the entry for key along with the raw object bytes, or
// (nil, nil, nil) on a miss. A missing object, or a key not of the form
// Key returns, is a miss; an unreadable or invalid object is quarantined
// and is a miss too. Every failure degrades to a miss, so the error is
// always nil.
func (s *Store) Get(key string) (*Entry, []byte, error) {
	if !validKey(key) {
		return nil, nil, nil
	}
	path := s.objectPath(key)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		s.quarantine(path)
		return nil, nil, nil
	}
	e, valid := validate(data, key)
	if !valid {
		s.quarantine(path)
		return nil, nil, nil
	}
	return e, data, nil
}

// List walks the objects directory and returns every object's key and size
// in key order. Temp files of writes still in flight are skipped. List does
// not validate objects; Get does that as it reads one.
func (s *Store) List() []IndexEntry {
	var out []IndexEntry
	// WalkDir visits the shard directories, and the files within each, in
	// lexical order; a shard is its keys' first two characters, so the walk
	// is in key order. A file that vanishes mid-walk (quarantined, say) is
	// skipped.
	_ = filepath.WalkDir(filepath.Join(s.dir, objectsDir), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		key, ok := strings.CutSuffix(d.Name(), ".json")
		if !ok || !validKey(key) {
			return nil
		}
		if info, err := d.Info(); err == nil {
			out = append(out, IndexEntry{Key: key, Size: info.Size()})
		}
		return nil
	})
	return out
}

// quarantine renames an object file into the quarantine directory.
func (s *Store) quarantine(path string) {
	dst := filepath.Join(s.dir, quarantineDir,
		strings.TrimSuffix(filepath.Base(path), ".json")+".bad")
	_ = os.Rename(path, dst) // best effort: a file left in place is re-checked on the next Get
}

// atomicWrite writes data to path via a temp file in the same directory
// plus rename, so readers never observe a partial file.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}
