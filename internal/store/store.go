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
// Serving byte-identity: Get returns the raw object file bytes alongside
// the decoded entry. A server that responds with those bytes verbatim
// serves byte-identical bodies for every hit of the same key, which is the
// determinism property the end-to-end tests assert.
//
// Location independence: object files carry no node-local state (the
// insertion sequence lives only in the index), so the same entry stored on
// two nodes of a fleet is the same bytes. PutRaw accepts another store's
// object bytes verbatim — validated, then written unchanged — which is how
// peer result fetch and result forwarding replicate entries across nodes
// without breaking byte-identity.
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

	"hintm/internal/obs"
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
// store has no dependency on the simulator's types and served bytes are
// exactly the stored bytes.
type Entry struct {
	Schema string `json:"schema"`
	Key    string `json:"key"`
	// Seq is the store-assigned insertion sequence; GC evicts lowest-first.
	// It is index-only bookkeeping, deliberately excluded from the object
	// file so object bytes are location-independent: two nodes holding the
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

// IndexEntry is the index's per-entry summary: identity and size, plus the
// request coordinates parsed out of the preimage at Put/rebuild time so
// listings can filter by workload or HTM without opening object files.
type IndexEntry struct {
	Key      string `json:"key"`
	Seq      uint64 `json:"seq"`
	Size     int64  `json:"size"`
	Workload string `json:"workload,omitempty"`
	Scale    string `json:"scale,omitempty"`
	HTM      string `json:"htm,omitempty"`
	Hints    string `json:"hints,omitempty"`
}

// indexVersion versions the index layout (not the key derivation — that is
// Schema's job). Version 2 added the request-coordinate summaries; an
// older index is rebuilt from the object files on Open.
const indexVersion = 2

// indexDoc is the on-disk index layout.
type indexDoc struct {
	Schema  string       `json:"schema"`
	Version int          `json:"version"`
	NextSeq uint64       `json:"nextSeq"`
	Entries []IndexEntry `json:"entries"`
}

// summarize extracts the filterable request coordinates from a canonical
// key preimage. Preimages without those fields (foreign request shapes)
// summarize to empty strings — they simply don't match coordinate filters.
func summarize(request json.RawMessage, e *IndexEntry) {
	var s struct {
		Workload string `json:"workload"`
		Scale    string `json:"scale"`
		HTM      string `json:"htm"`
		Hints    string `json:"hints"`
	}
	if json.Unmarshal(request, &s) != nil {
		return
	}
	e.Workload, e.Scale, e.HTM, e.Hints = s.Workload, s.Scale, s.HTM, s.Hints
}

// Store is safe for concurrent use by any number of goroutines.
type Store struct {
	dir     string
	metrics *obs.Metrics

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
	// An index from an older layout version (no request-coordinate
	// summaries) is not wrong, just incomplete: fall through to a rebuild,
	// which re-derives the summaries from the object files.
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

// SetMetrics attaches a registry the store feeds hit/miss/put/quarantine
// counters into (nil detaches).
func (s *Store) SetMetrics(m *obs.Metrics) {
	s.mu.Lock()
	s.metrics = m
	s.mu.Unlock()
}

func (s *Store) count(name string) {
	s.mu.Lock()
	m := s.metrics
	s.mu.Unlock()
	m.Counter(name).Inc()
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
		ie := IndexEntry{Key: e.Key, Seq: s.nextSeq, Size: int64(len(data))}
		summarize(e.Request, &ie)
		s.entries[e.Key] = ie
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
	ie := IndexEntry{Key: key, Seq: e.Seq, Size: int64(len(data))}
	summarize(e.Request, &ie)
	s.entries[key] = ie
	if err := s.writeIndexLocked(); err != nil {
		return "", err
	}
	s.metrics.Counter(obs.MetricStorePuts).Inc()
	return key, nil
}

// PutRaw stores another store's object bytes verbatim: the fleet
// replication path. The bytes must be a valid object body (schema, and a
// key that is the content address of its own request); they are written
// unchanged, so every replica of a key is byte-identical to the original.
// Re-putting an existing key keeps its sequence number, like Put.
func (s *Store) PutRaw(data []byte) (string, error) {
	var probe Entry
	if err := json.Unmarshal(data, &probe); err != nil {
		return "", fmt.Errorf("store: put raw: %w", err)
	}
	e, ok := validate(data, probe.Key)
	if !ok {
		return "", fmt.Errorf("store: put raw: bytes fail validation (schema %q, key %q)", probe.Schema, probe.Key)
	}
	key := e.Key
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.nextSeq
	if old, ok := s.entries[key]; ok {
		seq = old.Seq
	} else {
		s.nextSeq++
	}
	if err := atomicWrite(s.objectPath(key), data); err != nil {
		return "", fmt.Errorf("store: put raw %s: %w", key, err)
	}
	ie := IndexEntry{Key: key, Seq: seq, Size: int64(len(data))}
	summarize(e.Request, &ie)
	s.entries[key] = ie
	if err := s.writeIndexLocked(); err != nil {
		return "", err
	}
	s.metrics.Counter(obs.MetricStorePuts).Inc()
	s.metrics.Counter(obs.MetricStoreReplicas).Inc()
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
		s.count(obs.MetricStoreMisses)
		return nil, nil, nil
	}
	path := s.objectPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		// Indexed but unreadable: drop the index entry so later calls are
		// clean misses.
		s.quarantine(key)
		s.count(obs.MetricStoreMisses)
		return nil, nil, nil
	}
	e, valid := validate(data, key)
	if !valid {
		s.quarantine(key)
		s.count(obs.MetricStoreMisses)
		return nil, nil, nil
	}
	// Seq is index-only state (object bytes are location-independent);
	// restore it on the way out so callers still see insertion order.
	e.Seq = ie.Seq
	s.count(obs.MetricStoreHits)
	return e, data, nil
}

// Contains reports whether key is indexed, without touching the object
// file or the hit/miss counters (the serving layer's cheap pre-check).
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
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

// Filter selects index entries by request coordinates (canonical display
// spellings, as recorded in the key preimage); empty fields match anything.
type Filter struct {
	Workload string
	HTM      string
}

func (f Filter) matches(e IndexEntry) bool {
	return (f.Workload == "" || f.Workload == e.Workload) &&
		(f.HTM == "" || f.HTM == e.HTM)
}

// Select returns up to limit matching entries in insertion order, starting
// after the given sequence number (0 = from the beginning). The returned
// cursor is non-zero when more matches remain — pass it back as `after`
// for the next page. Pagination by sequence number is stable: entries
// inserted between pages appear at the end, never shift existing pages.
func (s *Store) Select(f Filter, after uint64, limit int) (items []IndexEntry, next uint64) {
	if limit <= 0 {
		return nil, 0
	}
	for _, e := range s.List() {
		if e.Seq <= after || !f.matches(e) {
			continue
		}
		if len(items) == limit {
			return items, items[len(items)-1].Seq
		}
		items = append(items, e)
	}
	return items, 0
}

// GC evicts the oldest entries (lowest sequence first) until at most keep
// remain, removing their object files. It returns how many were evicted.
func (s *Store) GC(keep int) (int, error) {
	if keep < 0 {
		keep = 0
	}
	all := s.List()
	if len(all) <= keep {
		return 0, nil
	}
	victims := all[:len(all)-keep]
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range victims {
		if err := os.Remove(s.objectPath(v.Key)); err != nil && !os.IsNotExist(err) {
			return 0, fmt.Errorf("store: gc %s: %w", v.Key, err)
		}
		delete(s.entries, v.Key)
	}
	if err := s.writeIndexLocked(); err != nil {
		return 0, err
	}
	return len(victims), nil
}

// quarantine moves key's object file aside and drops it from the index.
func (s *Store) quarantine(key string) {
	s.mu.Lock()
	delete(s.entries, key)
	err := s.writeIndexLocked()
	s.mu.Unlock()
	_ = err // the index rewrite is best-effort here; the map entry is gone
	s.moveToQuarantine(s.objectPath(key))
	s.count(obs.MetricStoreQuarantined)
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
