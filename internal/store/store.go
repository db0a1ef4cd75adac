// Package store is the on-disk, content-addressed experiment result store.
//
// Every completed simulation becomes a durable, addressable artifact: the
// key is the SHA-256 of the canonical encoding of the run's request (the
// harness derives it — request coordinates plus every option that reaches
// the simulator, prefixed with the store schema version), and the value is
// the run's full sim.Result JSON plus an optional sharing-profiler report
// and optional trace/autopsy artifact paths. Capacity-study campaigns are
// large config sweeps re-run with small deltas; with the store underneath
// the scheduler, regenerating one figure re-simulates only the cells that
// actually changed.
//
// Layout on disk:
//
//	<dir>/index.json            index: schema, next sequence, entry list
//	<dir>/objects/<k[:2]>/<k>.json  one entry per key, written atomically
//	<dir>/quarantine/<k>.bad    corrupt entries moved aside, never fatal
//
// Durability and corruption policy: object files are written to a temp
// file and renamed into place, so a crash never leaves a half-written
// entry at its final path; the index is rewritten the same way after every
// Put. An unreadable or inconsistent entry (bad JSON, schema mismatch, key
// that does not match its own request preimage) is quarantined on access
// and treated as a miss — the store degrades to re-simulation, it does not
// fail. A missing or corrupt index is rebuilt by scanning the objects
// directory, quarantining what cannot be salvaged.
//
// Byte-identity: Get returns the raw object file bytes alongside the
// decoded entry, so every hit of the same key yields the same bytes.
//
// Location independence: object files carry no store-local state (the
// insertion sequence lives only in the index), so the same entry stored in
// two store directories is the same bytes, and a lost index is rebuilt
// from the object files alone.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Schema versions the store layout and key derivation. It is part of every
// key's preimage and every entry body: bumping it invalidates (but does not
// delete) every existing entry, the right failure mode when an encoding
// changes meaning.
const Schema = "hintm-store/v1"

const (
	indexFile     = "index.json"
	objectsDir    = "objects"
	quarantineDir = "quarantine"
)

// Key returns the content address for a canonical request preimage: the
// hex SHA-256 of the bytes.
func Key(preimage []byte) string {
	sum := sha256.Sum256(preimage)
	return hex.EncodeToString(sum[:])
}

// Entry is one stored run. Request carries the canonical key preimage and
// Result the run's sim.Result encoding; both stay raw JSON here so the
// store has no dependency on the simulator's types and recalled bytes are
// exactly the stored bytes.
type Entry struct {
	Schema string `json:"schema"`
	Key    string `json:"key"`
	// Seq is the store-assigned insertion sequence, the order List returns.
	// It is index-only bookkeeping, deliberately excluded from the object
	// file so object bytes are location-independent: two stores holding the
	// same key hold byte-identical files.
	Seq     uint64          `json:"-"`
	Request json.RawMessage `json:"request"`
	Result  json.RawMessage `json:"result"`
	// Profile is the run's sharing-profiler report, for the requests that
	// carry one (Fig. 1's InfCap cells); absent everywhere else, so those
	// objects encode exactly as they did before the field existed.
	Profile json.RawMessage `json:"profile,omitempty"`
	// TracePath/AutopsyPath point at per-run observability artifacts when
	// the producing runner had a trace directory configured.
	TracePath   string `json:"tracePath,omitempty"`
	AutopsyPath string `json:"autopsyPath,omitempty"`
}

// IndexEntry is the index's per-entry summary: identity, insertion
// sequence and object size.
type IndexEntry struct {
	Key  string `json:"key"`
	Seq  uint64 `json:"seq"`
	Size int64  `json:"size"`
}

// indexVersion versions the index layout (not the key derivation — that is
// Schema's job). An index of any other version is rebuilt from the object
// files on Open. Version 2 indexes written with request-coordinate
// summaries still load: the extra fields are ignored.
const indexVersion = 2

// indexDoc is the on-disk index layout.
type indexDoc struct {
	Schema  string       `json:"schema"`
	Version int          `json:"version"`
	NextSeq uint64       `json:"nextSeq"`
	Entries []IndexEntry `json:"entries"`
}

// Store is safe for concurrent use by any number of goroutines.
type Store struct {
	dir string

	mu      sync.Mutex
	entries map[string]IndexEntry
	nextSeq uint64
}

// Open opens (creating if needed) the store rooted at dir. A corrupt or
// missing index is rebuilt from the objects directory; object files that
// cannot be salvaged are quarantined. Open never fails on bad content —
// only on I/O errors creating the layout itself.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, objectsDir), filepath.Join(dir, quarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	s := &Store{dir: dir, entries: make(map[string]IndexEntry), nextSeq: 1}
	data, err := os.ReadFile(filepath.Join(dir, indexFile))
	var idx indexDoc
	// An index from another layout version falls through to a rebuild from
	// the object files.
	if err == nil && json.Unmarshal(data, &idx) == nil && idx.Schema == Schema && idx.Version == indexVersion {
		for _, e := range idx.Entries {
			s.entries[e.Key] = e
		}
		s.nextSeq = idx.NextSeq
		if s.nextSeq == 0 {
			s.nextSeq = 1
		}
		return s, nil
	}
	if err := s.rebuild(); err != nil {
		return nil, err
	}
	return s, nil
}

// rebuild reconstructs the index by scanning the objects directory,
// quarantining any file that fails validation, and rewrites index.json.
// Object files carry no sequence numbers (they are location-independent),
// so a rebuild assigns fresh ones in walk order — key order, which is
// deterministic; the original insertion order is index-only state and does
// not survive losing the index.
func (s *Store) rebuild() error {
	s.entries = make(map[string]IndexEntry)
	s.nextSeq = 1
	root := filepath.Join(s.dir, objectsDir)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil // unreadable: leave for a later quarantine attempt
		}
		e, ok := validate(data, strings.TrimSuffix(filepath.Base(path), ".json"))
		if !ok {
			s.moveToQuarantine(path)
			return nil
		}
		s.entries[e.Key] = IndexEntry{Key: e.Key, Seq: s.nextSeq, Size: int64(len(data))}
		s.nextSeq++
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: rebuild: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeIndexLocked()
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
	shard := key
	if len(shard) > 2 {
		shard = shard[:2]
	}
	return filepath.Join(s.dir, objectsDir, shard, key+".json")
}

// Put stores an entry, deriving its key from the request preimage (callers
// cannot mis-key an entry). The object file and the updated index are both
// written atomically (temp file + rename). It returns the assigned key;
// re-putting an existing key overwrites the object in place and keeps its
// original sequence number.
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

	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[key]; ok {
		e.Seq = old.Seq
	} else {
		e.Seq = s.nextSeq
		s.nextSeq++
	}
	data, err := json.Marshal(&e)
	if err != nil {
		return "", fmt.Errorf("store: put: %w", err)
	}
	data = append(data, '\n')
	path := s.objectPath(key)
	if err := atomicWrite(path, data); err != nil {
		return "", fmt.Errorf("store: put %s: %w", key, err)
	}
	s.entries[key] = IndexEntry{Key: key, Seq: e.Seq, Size: int64(len(data))}
	if err := s.writeIndexLocked(); err != nil {
		return "", err
	}
	return key, nil
}

// Get returns the entry for key along with the raw object bytes, or
// (nil, nil, nil) on a miss. A corrupt entry is quarantined and reported
// as a miss; Get only errors on the store's own bookkeeping I/O.
func (s *Store) Get(key string) (*Entry, []byte, error) {
	s.mu.Lock()
	ie, ok := s.entries[key]
	s.mu.Unlock()
	if !ok {
		return nil, nil, nil
	}
	path := s.objectPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		// Indexed but unreadable: drop the index entry so later calls are
		// clean misses.
		s.quarantine(key)
		return nil, nil, nil
	}
	e, valid := validate(data, key)
	if !valid {
		s.quarantine(key)
		return nil, nil, nil
	}
	// Seq is index-only state (object bytes are location-independent);
	// restore it on the way out so callers still see insertion order.
	e.Seq = ie.Seq
	return e, data, nil
}

// List returns the index in insertion order (ascending sequence).
func (s *Store) List() []IndexEntry {
	s.mu.Lock()
	out := make([]IndexEntry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// quarantine moves key's object file aside and drops it from the index.
func (s *Store) quarantine(key string) {
	s.mu.Lock()
	delete(s.entries, key)
	err := s.writeIndexLocked()
	s.mu.Unlock()
	_ = err // the index rewrite is best-effort here; the map entry is gone
	s.moveToQuarantine(s.objectPath(key))
}

// moveToQuarantine renames an object file into the quarantine directory.
func (s *Store) moveToQuarantine(path string) {
	dst := filepath.Join(s.dir, quarantineDir,
		strings.TrimSuffix(filepath.Base(path), ".json")+".bad")
	_ = os.Rename(path, dst)
}

// writeIndexLocked atomically rewrites index.json (entries key-sorted for
// byte-stable output). Callers hold s.mu.
func (s *Store) writeIndexLocked() error {
	idx := indexDoc{Schema: Schema, Version: indexVersion, NextSeq: s.nextSeq}
	for _, e := range s.entries {
		idx.Entries = append(idx.Entries, e)
	}
	sort.Slice(idx.Entries, func(i, j int) bool { return idx.Entries[i].Key < idx.Entries[j].Key })
	data, err := json.MarshalIndent(&idx, "", "  ")
	if err != nil {
		return fmt.Errorf("store: index: %w", err)
	}
	data = append(data, '\n')
	if err := atomicWrite(filepath.Join(s.dir, indexFile), data); err != nil {
		return fmt.Errorf("store: index: %w", err)
	}
	return nil
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
