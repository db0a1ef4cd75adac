package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
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

// listed reports whether List names key, without reading its object.
func listed(s *Store, key string) bool {
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
	if e.Schema != Schema || e.Key != key {
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
	if len(s2.List()) != 2 || !listed(s2, key) {
		t.Fatalf("reopened store lost entries: %v", s2.List())
	}
	e, _, _ := s2.Get(key)
	if e == nil || string(e.Result) != `{"r":1}` {
		t.Fatalf("reopened Get = %+v", e)
	}
}

func TestPutOverwrites(t *testing.T) {
	s, _ := Open(t.TempDir())
	put(t, s, `{"a":1}`, `{"r":1}`)
	key := put(t, s, `{"a":1}`, `{"r":9}`)
	e, _, _ := s.Get(key)
	if string(e.Result) != `{"r":9}` {
		t.Errorf("overwrite: result=%s, want the new result", e.Result)
	}
	if n := len(s.List()); n != 1 {
		t.Errorf("%d entries after overwrite, want 1", n)
	}
}

// TestListKeyOrder: List returns every object in key order with its file
// size, and skips the temp files of writes still in flight.
func TestListKeyOrder(t *testing.T) {
	s, _ := Open(t.TempDir())
	var keys []string
	for _, req := range []string{`{"a":1}`, `{"a":2}`, `{"a":3}`, `{"a":4}`} {
		keys = append(keys, put(t, s, req, `{}`))
	}
	sort.Strings(keys)
	if err := os.WriteFile(filepath.Join(filepath.Dir(s.objectPath(keys[0])), ".tmp-123"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := s.List()
	if len(got) != len(keys) {
		t.Fatalf("List = %+v, want %d entries", got, len(keys))
	}
	for i, e := range got {
		info, err := os.Stat(s.objectPath(e.Key))
		if err != nil || e.Key != keys[i] || e.Size != info.Size() {
			t.Errorf("List[%d] = %+v, want key %s and its object's size (%v)", i, e, keys[i], err)
		}
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
	if listed(s, key) {
		t.Error("corrupt key still listed")
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

// TestStoresShareOneDirectory: two Store values opened on one directory
// before either writes each recall the other's entry as soon as it is put,
// and a third Open lists both.
func TestStoresShareOneDirectory(t *testing.T) {
	dir := t.TempDir()
	a, _ := Open(dir)
	b, _ := Open(dir)
	ka := put(t, a, `{"a":1}`, `{"r":1}`)
	if e, _, _ := b.Get(ka); e == nil || string(e.Result) != `{"r":1}` {
		t.Fatalf("second store misses the first's entry: %+v", e)
	}
	kb := put(t, b, `{"a":2}`, `{"r":2}`)
	if e, _, _ := a.Get(kb); e == nil || string(e.Result) != `{"r":2}` {
		t.Fatalf("first store misses the second's entry: %+v", e)
	}
	c, _ := Open(dir)
	if len(c.List()) != 2 || !listed(c, ka) || !listed(c, kb) {
		t.Fatalf("reopened store lists %+v, want both entries", c.List())
	}
	for _, k := range []string{ka, kb} {
		if e, _, _ := c.Get(k); e == nil {
			t.Errorf("reopened store misses %s", k)
		}
	}
}

// TestConcurrentStoresPut: goroutines, each with its own Store value on one
// directory, put keys they share and keys of their own at once. Every key
// then reads back, and no temp or quarantined file is left. Run under
// -race by the Makefile's race target.
func TestConcurrentStoresPut(t *testing.T) {
	dir := t.TempDir()
	const writers, shared = 8, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := Open(dir)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < shared; i++ {
				for _, req := range []string{fmt.Sprintf(`{"shared":%d}`, i), fmt.Sprintf(`{"writer":%d,"i":%d}`, w, i)} {
					if _, err := s.Put(Entry{Request: json.RawMessage(req), Result: json.RawMessage(`{"r":1}`)}); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	s, _ := Open(dir)
	if n := len(s.List()); n != shared+writers*shared {
		t.Errorf("List has %d entries, want %d", n, shared+writers*shared)
	}
	for _, e := range s.List() {
		if got, _, _ := s.Get(e.Key); got == nil {
			t.Errorf("%s does not read back", e.Key)
		}
	}
	var stray []string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && (strings.HasPrefix(d.Name(), ".tmp-") || strings.HasSuffix(d.Name(), ".bad")) {
			stray = append(stray, path)
		}
		return nil
	})
	if len(stray) != 0 {
		t.Errorf("temp or quarantined files left behind: %v", stray)
	}
}

// TestOlderLayoutRecalls: a store directory written before the store
// dropped its index still recalls every object. testdata/older-layout holds
// one written by that older store, with its index file set back to before
// the second Put (so the index names only the yada entry) and without the
// next-sequence field (which the older store defaulted). The yada object
// carries the trace and autopsy paths runners stored then.
func TestOlderLayoutRecalls(t *testing.T) {
	src := filepath.Join("testdata", "older-layout")
	dir := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, strings.TrimPrefix(path, src))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	yada := Key([]byte(`{"workload":"yada","seed":1}`))
	vacation := Key([]byte(`{"workload":"vacation","seed":1}`))
	if got := s.List(); len(got) != 2 || !listed(s, yada) || !listed(s, vacation) {
		t.Fatalf("List = %+v, want the yada and vacation objects", got)
	}
	for key, result := range map[string]string{yada: `{"cycles":7}`, vacation: `{"cycles":42}`} {
		e, raw, _ := s.Get(key)
		want, _ := os.ReadFile(filepath.Join(src, objectsDir, key[:2], key+".json"))
		if e == nil || string(e.Result) != result || !bytes.Equal(raw, want) {
			t.Errorf("%s: entry %+v, raw %q", key, e, raw)
		}
	}
}
