package hypotheses

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"hintm/internal/hyp"
	"hintm/internal/workloads"
)

// TestRegistryMatchesTree pins the three-way agreement between Names, the
// hyp registry, and the directories on disk: adding a hypothesis without
// wiring all three is a test failure, not a silent gap in CI's check.
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
