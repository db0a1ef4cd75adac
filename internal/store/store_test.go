package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func put(t *testing.T, s *Store, req, result string) string {
	t.Helper()
	key, err := s.Put(Entry{Request: json.RawMessage(req), Result: json.RawMessage(result)})
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	return key
}

// indexed reports whether key is in s's index, without reading its object.
func indexed(s *Store, key string) bool {
	for _, e := range s.List() {
		if e.Key == key {
			return true
		}
	}
	return false
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := `{"workload":"vacation","seed":1}`
	key := put(t, s, req, `{"cycles":42}`)
	if key != Key([]byte(req)) {
		t.Errorf("Put key = %s, want content address of the request preimage", key)
	}
	e, raw, err := s.Get(key)
	if err != nil || e == nil {
		t.Fatalf("Get: entry=%v err=%v", e, err)
	}
	if string(e.Request) != req || string(e.Result) != `{"cycles":42}` {
		t.Errorf("round-trip mismatch: %+v", e)
	}
	if e.Schema != Schema || e.Key != key || e.Seq != 1 {
		t.Errorf("entry metadata wrong: %+v", e)
	}
	if !json.Valid(raw) || !bytes.Contains(raw, []byte(key)) {
		t.Errorf("raw bytes not a valid self-describing object: %q", raw)
	}

	// Raw serving bytes are stable across reads.
	_, raw2, _ := s.Get(key)
	if !bytes.Equal(raw, raw2) {
		t.Error("two Gets returned different bytes")
	}
}

func TestMissIsNotAnError(t *testing.T) {
	s, _ := Open(t.TempDir())
	e, raw, err := s.Get(strings.Repeat("ab", 32))
	if e != nil || raw != nil || err != nil {
		t.Fatalf("miss: got (%v, %q, %v), want (nil, nil, nil)", e, raw, err)
	}
}

func TestReopenRecalls(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	key := put(t, s, `{"a":1}`, `{"r":1}`)
	put(t, s, `{"a":2}`, `{"r":2}`)

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.List()) != 2 || !indexed(s2, key) {
		t.Fatalf("reopened store lost entries: %v", s2.List())
	}
	e, _, _ := s2.Get(key)
	if e == nil || string(e.Result) != `{"r":1}` {
		t.Fatalf("reopened Get = %+v", e)
	}
}

func TestPutOverwriteKeepsSeq(t *testing.T) {
	s, _ := Open(t.TempDir())
	put(t, s, `{"a":1}`, `{"r":1}`)
	key := put(t, s, `{"a":1}`, `{"r":9}`)
	e, _, _ := s.Get(key)
	if e.Seq != 1 || string(e.Result) != `{"r":9}` {
		t.Errorf("overwrite: seq=%d result=%s, want seq 1 and new result", e.Seq, e.Result)
	}
	if n := len(s.List()); n != 1 {
		t.Errorf("%d entries after overwrite, want 1", n)
	}
}

func TestListInsertionOrderAndGC(t *testing.T) {
	s, _ := Open(t.TempDir())
	k1 := put(t, s, `{"a":1}`, `{}`)
	k2 := put(t, s, `{"a":2}`, `{}`)
	k3 := put(t, s, `{"a":3}`, `{}`)
	got := s.List()
	if len(got) != 3 || got[0].Key != k1 || got[1].Key != k2 || got[2].Key != k3 {
		t.Fatalf("List order wrong: %+v", got)
	}
}

func TestCorruptObjectQuarantinedNotFatal(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	key := put(t, s, `{"a":1}`, `{"r":1}`)
	if err := os.WriteFile(s.objectPath(key), []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	e, _, err := s.Get(key)
	if err != nil || e != nil {
		t.Fatalf("corrupt Get: entry=%v err=%v, want clean miss", e, err)
	}
	if indexed(s, key) {
		t.Error("corrupt key still indexed")
	}
	bad, _ := filepath.Glob(filepath.Join(dir, quarantineDir, "*.bad"))
	if len(bad) != 1 {
		t.Errorf("quarantine holds %d files, want 1", len(bad))
	}
}

func TestKeyMismatchQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	key := put(t, s, `{"a":1}`, `{"r":1}`)
	// A valid entry body whose request no longer hashes to its key.
	data, _ := os.ReadFile(s.objectPath(key))
	tampered := bytes.Replace(data, []byte(`{"a":1}`), []byte(`{"a":9}`), 1)
	os.WriteFile(s.objectPath(key), tampered, 0o644)
	if e, _, _ := s.Get(key); e != nil {
		t.Fatal("tampered entry served")
	}
}

func TestCorruptIndexRebuilds(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	k1 := put(t, s, `{"a":1}`, `{"r":1}`)
	k2 := put(t, s, `{"a":2}`, `{"r":2}`)
	// Corrupt the index and one of the two objects: reopen must salvage the
	// good object and quarantine the bad one.
	os.WriteFile(filepath.Join(dir, indexFile), []byte("not json"), 0o644)
	os.WriteFile(s.objectPath(k2), []byte("{broken"), 0o644)

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after corruption: %v", err)
	}
	if !indexed(s2, k1) || indexed(s2, k2) {
		t.Fatalf("rebuild: indexed(k1)=%v indexed(k2)=%v", indexed(s2, k1), indexed(s2, k2))
	}
	e, _, _ := s2.Get(k1)
	if e == nil || string(e.Result) != `{"r":1}` {
		t.Fatalf("salvaged entry unreadable: %+v", e)
	}
	// Sequence numbering continues past the salvaged entries.
	k3 := put(t, s2, `{"a":3}`, `{}`)
	if e, _, _ := s2.Get(k3); e == nil || e.Seq <= 1 {
		t.Errorf("post-rebuild seq = %+v", e)
	}
}

func TestNoTempFilesLeftBehind(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	put(t, s, `{"a":1}`, `{"r":1}`)
	var stray []string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(d.Name(), ".tmp-") {
			stray = append(stray, path)
		}
		return nil
	})
	if len(stray) != 0 {
		t.Errorf("temp files left behind: %v", stray)
	}
}

// TestIndexUpgradeRebuild: an index of another layout version is not
// trusted; Open rebuilds it from the object files.
func TestIndexUpgradeRebuild(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := put(t, s, `{"workload":"labyrinth","scale":"small","htm":"P8","hints":"baseline"}`, `{"cycles":1}`)
	want := s.List()

	// Regress the on-disk index to version 1 and empty it: only a rebuild
	// from the object files can find the entry again.
	var doc indexDoc
	path := filepath.Join(dir, indexFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	doc.Version, doc.Entries = 1, nil
	regressed, _ := json.Marshal(doc)
	if err := os.WriteFile(path, regressed, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.List(); len(got) != 1 || got[0] != want[0] || got[0].Key != key {
		t.Errorf("rebuilt index = %+v, want %+v", got, want)
	}
}
