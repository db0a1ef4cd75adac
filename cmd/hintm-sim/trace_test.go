package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/trace-hashes.txt from the current simulator")

// traceCells are the traced runs: vacation on P8, and Fig. 8's genome
// cell, L1TM with 8 threads on 4 dual-threaded cores, whose trace records
// l1-eviction events.
var traceCells = []string{
	"-scale small vacation",
	"-scale small -htm l1tm -smt 2 -hints full genome",
}

// TestTraceHashes pins the Chrome trace and the stdout (statistics and
// autopsy) of traceCells against testdata/trace-hashes.txt, so a change
// that moves a trace byte fails here, and so does a run that differs from
// another of the same binary. Regenerate deliberately with
//
//	go test ./cmd/hintm-sim -run TestTraceHashes -update
func TestTraceHashes(t *testing.T) {
	var got strings.Builder
	for _, cell := range traceCells {
		path := filepath.Join(t.TempDir(), "trace.json")
		stdout, stderr, err := hintmSim("-trace-out " + path + " -autopsy " + cell)
		if err != nil {
			t.Fatalf("hintm-sim %s: %v\n%s", cell, err, stderr)
		}
		trace, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s\n\ttrace   %x\n\tautopsy %x\n", cell, sha256.Sum256(trace), sha256.Sum256([]byte(stdout)))
	}
	const file = "testdata/trace-hashes.txt"
	if *update {
		if err := os.WriteFile(file, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got.String() != string(want) {
		t.Errorf("trace or autopsy moved (regenerate with -update if intended):\ngot:\n%swant:\n%s", got.String(), want)
	}
}
