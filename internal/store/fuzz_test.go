package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzStoreEntryDecode feeds arbitrary bytes through the object validation
// Get and rebuild share. The bytes enter the way every object does on Open:
// as a file in the objects directory, under the content address of the
// request they claim (always a 64-hex hash, so no input can name a path
// outside the store). Bytes are either rejected, leaving the rebuilt index
// empty, or they round-trip: the rebuild indexes them under that key, and
// Get returns the same bytes and the entry validate decoded. Nothing may
// panic.
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
		{Request: json.RawMessage(`{"workload":"yada"}`), Result: json.RawMessage(`{}`), TracePath: "t.json", AutopsyPath: "a.txt"},
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
		if !valid {
			if len(s.List()) != 0 {
				t.Fatalf("rebuild indexed bytes validate rejects: %q", data)
			}
			return
		}
		if len(s.List()) != 1 || !indexed(s, key) {
			t.Fatalf("rebuild did not index valid bytes under %s: %v", key, s.List())
		}
		got, raw, err := s.Get(key)
		if err != nil || got == nil || !bytes.Equal(raw, data) {
			t.Fatalf("Get after rebuild: entry %v, err %v, bytes equal %v", got, err, bytes.Equal(raw, data))
		}
		got.Seq = 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded entry changed:\nvalidate: %+v\nGet:      %+v", want, got)
		}
	})
}
