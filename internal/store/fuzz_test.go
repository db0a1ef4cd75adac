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
// Get, rebuild and PutRaw share. Bytes are either rejected, by validate and
// PutRaw alike, or they round-trip: PutRaw stores them verbatim, Get returns
// the same bytes and the entry validate decoded, and a rebuild from the
// objects directory indexes them again. Nothing may panic.
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
		var probe Entry
		_ = json.Unmarshal(data, &probe)
		want, valid := validate(data, probe.Key)

		dir, err := os.MkdirTemp(root, "store-")
		if err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(dir)
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		key, err := s.PutRaw(data)
		if !valid {
			if err == nil {
				t.Fatalf("PutRaw accepted bytes validate rejects: %q", data)
			}
			return
		}
		if err != nil || key != want.Key {
			t.Fatalf("PutRaw rejected valid bytes: key %q, err %v", key, err)
		}
		got, raw, err := s.Get(key)
		if err != nil || got == nil || !bytes.Equal(raw, data) {
			t.Fatalf("Get after PutRaw: entry %v, err %v, bytes equal %v", got, err, bytes.Equal(raw, data))
		}
		got.Seq = 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded entry changed:\nvalidate: %+v\nGet:      %+v", want, got)
		}
		if err := os.Remove(filepath.Join(dir, indexFile)); err != nil {
			t.Fatal(err)
		}
		rebuilt, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rebuilt.Len() != 1 || !rebuilt.Contains(key) {
			t.Fatalf("rebuild lost the entry: %v", rebuilt.List())
		}
	})
}
