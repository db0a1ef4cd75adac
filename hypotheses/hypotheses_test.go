package hypotheses

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hintm/internal/harness"
	"hintm/internal/hyp"
	"hintm/internal/store"
	"hintm/internal/workloads"
)

// update rewrites the committed findings instead of checking them:
//
//	go test ./hypotheses -run TestFindings -update
//
// so `git diff` shows which verdicts and tables moved.
var update = flag.Bool("update", false, "rewrite every <name>/FINDINGS.md from a fresh evaluation")

// TestRegistryMatchesTree pins the three-way agreement between Names, the
// hyp registry, and the directories on disk: adding a hypothesis without
// wiring all three is a test failure, not a silent gap in TestFindings.
func TestRegistryMatchesTree(t *testing.T) {
	if !sort.StringsAreSorted(Names) {
		t.Errorf("Names not sorted: %v", Names)
	}
	var registered []string
	for _, s := range hyp.All() {
		registered = append(registered, s.Name)
	}
	if len(registered) != len(Names) {
		t.Fatalf("registry has %v, Names has %v", registered, Names)
	}
	for i, name := range Names {
		if registered[i] != name {
			t.Errorf("registry[%d] = %q, Names[%d] = %q", i, registered[i], i, name)
		}
		if fi, err := os.Stat(name); err != nil || !fi.IsDir() {
			t.Errorf("hypothesis %q has no directory: %v", name, err)
		}
		if _, err := os.Stat(filepath.Join(name, "FINDINGS.md")); err != nil {
			t.Errorf("hypothesis %q has no committed FINDINGS.md: %v", name, err)
		}
	}
}

// TestFindings pins the committed catalogue the way the golden pins the
// figure grid: every registered spec runs at small scale on one engine over
// a fresh store, and its rendered findings must equal <name>/FINDINGS.md
// byte for byte, so a change that moves a verdict or a table fails here. A
// second engine over the same store then runs the catalogue again and must
// recall every cell: no simulation and no derived cell, since a derived cell
// that never reached the store is not warm.
func TestFindings(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	rendered := map[string][]byte{}
	cold := findingsEngine(t, dir)
	for _, spec := range hyp.All() {
		e, err := cold.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		got := hyp.Render(e)
		rendered[spec.Name] = got
		path := filepath.Join(spec.Name, "FINDINGS.md")
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%v (generate with -update)", err)
			continue
		}
		if err := findingsDrift(path, got, want); err != nil {
			t.Errorf("%v\n  (regenerate with -update if intended)", err)
		}
	}

	warm := findingsEngine(t, dir)
	var simRuns, derived uint64
	for _, spec := range hyp.All() {
		e, err := warm.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		simRuns += e.SimRuns
		derived += e.Derived
		if !bytes.Equal(hyp.Render(e), rendered[spec.Name]) {
			t.Errorf("%s: the warm pass rendered different findings from the cold pass", spec.Name)
		}
	}
	if simRuns > 0 || derived > 0 {
		t.Errorf("warm pass: %d cells simulated and %d derived instead of recalled from the store", simRuns, derived)
	}
}

// findingsEngine is the engine the committed findings are generated on:
// default options at small scale, over the store in dir.
func findingsEngine(t *testing.T, dir string) *hyp.Engine {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := harness.DefaultOptions()
	opts.Scale = workloads.Small
	opts.Store = st
	return &hyp.Engine{Opts: opts}
}

// findingsDrift describes how got differs from the committed want at path:
// the first differing line, or the line counts when one is a prefix of the
// other. It returns nil when they are equal.
func findingsDrift(path string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			return fmt.Errorf("findings drift at %s:%d:\n  committed: %s\n  measured:  %s", path, i+1, wantLines[i], gotLines[i])
		}
	}
	return fmt.Errorf("findings drift: %s has %d lines, the evaluation renders %d", path, len(wantLines), len(gotLines))
}

// TestFindingsDriftNamesFirstLine: any byte change is drift, reported at
// its first differing line, and a truncated committed file is drift by line
// count.
func TestFindingsDriftNamesFirstLine(t *testing.T) {
	want := []byte("# Hypothesis: x\n\n**Verdict: SUPPORTED** — ok\n")
	if err := findingsDrift("x/FINDINGS.md", want, want); err != nil {
		t.Errorf("equal findings: %v", err)
	}
	got := bytes.Replace(want, []byte("SUPPORTED"), []byte("REFUTED"), 1)
	if err := findingsDrift("x/FINDINGS.md", got, want); err == nil || !strings.Contains(err.Error(), "x/FINDINGS.md:3") {
		t.Errorf("changed verdict: err = %v, want drift at x/FINDINGS.md:3", err)
	}
	if err := findingsDrift("x/FINDINGS.md", want, want[:16]); err == nil || !strings.Contains(err.Error(), "lines") {
		t.Errorf("committed file a prefix of the evaluation: err = %v, want a line-count drift", err)
	}
}

// TestSpecsAreRunnable validates every committed spec beyond structural
// checks: the base workload must exist and every level must apply cleanly.
func TestSpecsAreRunnable(t *testing.T) {
	for _, s := range hyp.All() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if _, err := workloads.ByName(s.Base.Workload); err != nil {
			t.Errorf("%s: base workload: %v", s.Name, err)
		}
		for _, l := range s.Levels {
			req := s.Base
			if l.Apply != nil {
				l.Apply(&req)
			}
			if req.Workload != s.Base.Workload {
				t.Errorf("%s/%s: a level must not change the workload (one variable at a time)", s.Name, l.Name)
			}
		}
	}
}

// TestCommittedFindingsNameTheirHypothesis guards against copy-paste
// skew between a directory and the findings generated into it.
func TestCommittedFindingsNameTheirHypothesis(t *testing.T) {
	for _, name := range Names {
		data, err := os.ReadFile(filepath.Join(name, "FINDINGS.md"))
		if err != nil {
			t.Fatal(err)
		}
		want := "# Hypothesis: " + name + "\n"
		if len(data) < len(want) || string(data[:len(want)]) != want {
			t.Errorf("%s/FINDINGS.md does not open with %q", name, want)
		}
	}
}
