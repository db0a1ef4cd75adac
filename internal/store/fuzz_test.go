package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzStoreEntryDecode feeds arbitrary bytes through Get's object
// validation. The bytes enter the way every object another process wrote
// does: as a file in the objects directory, under the content address of
// the request they claim (always a 64-hex hash, so no input can name a path
// outside the store). Bytes are either rejected, a Get miss that
// quarantines them and leaves List empty, or they round-trip: List names
// them under that key with their size, and Get returns the same bytes and
// the entry validate decoded. Nothing may panic.
func FuzzStoreEntryDecode(f *testing.F) {
	seeds, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range []Entry{
		{Request: json.RawMessage(`{"workload":"vacation","seed":1}`), Result: json.RawMessage(`{"cycles":42}`)},
		{
			Request: json.RawMessage(`{"workload":"bayes","htm":"InfCap","hints":"baseline"}`),
			Result:  json.RawMessage(`{"cycles":7}`),
			Profile: json.RawMessage(`{"SafePageFrac":0.5,"Pages":3}`),
		},
		{Request: json.RawMessage(`{"workload":"yada"}`), Result: json.RawMessage(`{}`)},
	} {
		key, err := seeds.Put(e)
		if err != nil {
			f.Fatal(err)
		}
		_, raw, err := seeds.Get(key)
		if err != nil || raw == nil {
			f.Fatalf("seed %s unreadable: %v", key, err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"schema":"hintm-store/v1","key":"00","request":{},"result":{}}`))

	root := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		dir, err := os.MkdirTemp(root, "store-")
		if err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(dir)
		var probe Entry
		_ = json.Unmarshal(data, &probe)
		key := Key(probe.Request)
		want, valid := validate(data, key)
		shard := filepath.Join(dir, objectsDir, key[:2])
		if err := os.MkdirAll(shard, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(shard, key+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, raw, err := s.Get(key)
		if !valid {
			if got != nil || raw != nil || err != nil || len(s.List()) != 0 {
				t.Fatalf("bytes validate rejects were served or left listed: %q", data)
			}
			return
		}
		if l := s.List(); len(l) != 1 || l[0] != (IndexEntry{Key: key, Size: int64(len(data))}) {
			t.Fatalf("List = %+v, want %s with size %d", l, key, len(data))
		}
		if err != nil || got == nil || !bytes.Equal(raw, data) {
			t.Fatalf("Get: entry %v, err %v, bytes equal %v", got, err, bytes.Equal(raw, data))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded entry changed:\nvalidate: %+v\nGet:      %+v", want, got)
		}
	})
}
