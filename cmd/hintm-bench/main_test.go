package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hintm/internal/harness"
)

// TestBaselineIsPaperScale: the committed BENCH_baseline.json parses under
// the current schema and comes from a store-free paper-scale run at seed 1,
// the run `make bench-diff` makes, so the gate compares comparable
// documents; benchdiff passes it against itself and reports on run's writer.
func TestBaselineIsPaperScale(t *testing.T) {
	const path = "../../BENCH_baseline.json"
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base, err := harness.ReadBenchResults(f)
	if err != nil {
		t.Fatal(err)
	}
	if base.Scale != "large" || base.LargeScale != "large" || base.Seed != 1 || base.Store {
		t.Errorf("baseline is %s/%s, seed %d, store %t; want large/large, seed 1, store-free",
			base.Scale, base.LargeScale, base.Seed, base.Store)
	}
	if base.ColdRuns == 0 || base.SimCycles == 0 || base.WallSeconds <= 0 {
		t.Errorf("baseline has %d cold runs, %d cycles, %v s wall; want all nonzero",
			base.ColdRuns, base.SimCycles, base.WallSeconds)
	}
	var out bytes.Buffer
	if err := run([]string{"benchdiff", path, path}, &out); err != nil {
		t.Fatalf("baseline against itself: %v", err)
	}
	if !strings.Contains(out.String(), "same production") {
		t.Errorf("benchdiff printed %q, want its success line", out.String())
	}
}

// TestAllResultsCountsSumToTotals: the document "all" writes to -results
// is the one it rendered, so on a cold run the figures' production counts
// add up to the run's totals, Fig. 1, the first figure, produced cells of
// its own, and the document's sections match the printed run summary.
func TestAllResultsCountsSumToTotals(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole small figure grid")
	}
	path := filepath.Join(t.TempDir(), "results.json")
	var out bytes.Buffer
	if err := run([]string{"-scale", "small", "-large", "small", "-results", path, "all"}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, err := harness.ReadBenchResults(f)
	if err != nil {
		t.Fatal(err)
	}
	sections := []*harness.Section{&doc.Fig1.Section, &doc.Fig4.Section, &doc.Fig5.Section,
		&doc.Fig6.Section, &doc.Fig7.Section, &doc.Fig8.Section}
	var cold, derived, hits uint64
	for _, s := range sections {
		cold += s.ColdRuns
		derived += s.Derived
		hits += s.StoreHits
	}
	if cold != doc.ColdRuns || derived != doc.Derived || hits != doc.StoreHits {
		t.Errorf("sections sum to %d cold, %d derived, %d store hits; run totals %d, %d, %d",
			cold, derived, hits, doc.ColdRuns, doc.Derived, doc.StoreHits)
	}
	if doc.Fig1.ColdRuns == 0 || doc.ColdRuns == 0 || doc.SimCycles == 0 {
		t.Errorf("cold run: fig1 %d cold, run %d cold and %d cycles, want all nonzero",
			doc.Fig1.ColdRuns, doc.ColdRuns, doc.SimCycles)
	}
	want := fmt.Sprint("TOTAL ", doc.ColdRuns, " ", doc.Derived, " ", doc.StoreHits)
	var total string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "TOTAL") {
			total = strings.Join(strings.Fields(line), " ")
		}
	}
	if total != want {
		t.Errorf("printed run summary's total %q, want %q", total, want)
	}
}

// TestRemovedTargetsAreUnknown: the SVG renderer, the intset extras sweep
// and export (-results writes the same document) are gone, so their
// targets fail as unknown before anything runs.
func TestRemovedTargetsAreUnknown(t *testing.T) {
	for _, target := range []string{"extras", "svg", "export"} {
		var out bytes.Buffer
		err := run([]string{target}, &out)
		if err == nil || !strings.Contains(err.Error(), `unknown target "`+target+`"`) {
			t.Errorf("%s: err = %v, want an unknown-target error", target, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed before failing:\n%s", target, out.String())
		}
	}
}

// TestUnknownWorkloadRunsNoSimulation: a misspelled or repeated -workloads
// name fails before the store is opened or any figure renders, so nothing
// is printed (no all-zero "Run summary" table, no workload's rows twice)
// and no store directory is created.
func TestUnknownWorkloadRunsNoSimulation(t *testing.T) {
	for _, c := range []struct{ list, want string }{
		{"bogus", `-workloads: workloads: unknown workload "bogus"`},
		{"vacation,vacation,bayes", `-workloads: "vacation" listed twice`},
	} {
		for _, target := range []string{"fig4", "all"} {
			dir := filepath.Join(t.TempDir(), "store")
			var out bytes.Buffer
			err := run([]string{"-scale", "small", "-results", "", "-store", dir, "-workloads", c.list, target}, &out)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s %s: err = %v, want %q", c.list, target, err, c.want)
			}
			if out.Len() != 0 {
				t.Errorf("%s %s: printed before failing:\n%s", c.list, target, out.String())
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Errorf("%s %s: store directory exists (%v): the filter was checked after the store opened", c.list, target, err)
			}
		}
	}
}

// TestNegativeTimeoutIsUsageError: a negative -timeout, and a negative
// count, is a usage error (exit 2) before the store opens or anything
// runs, not "no timeout". So are the removed grid-tracing flags: hintm-sim
// traces a cell. The command runs in a child process, since the flag
// package exits it.
func TestNegativeTimeoutIsUsageError(t *testing.T) {
	if args := os.Getenv("HINTM_BENCH_ARGS"); args != "" {
		if err := run(strings.Fields(args), os.Stdout); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, c := range []struct{ args, want string }{
		{"-timeout -1s", "-timeout: must not be negative"},
		{"-workers -3", "-workers: must not be negative"},
		{"-watchdog -5", "-watchdog: must not be negative"},
		{"-max-cycles -5", "-max-cycles: must not be negative"},
		{"-trace-dir traces", "flag provided but not defined: -trace-dir"},
		{"-sample-cycles 5", "flag provided but not defined: -sample-cycles"},
	} {
		dir := filepath.Join(t.TempDir(), "store")
		cmd := exec.Command(os.Args[0], "-test.run=^TestNegativeTimeoutIsUsageError$")
		cmd.Env = append(os.Environ(), "HINTM_BENCH_ARGS=-scale small -workloads kmeans -results= "+c.args+" -store "+dir+" fig4")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("hintm-bench %s: err = %v, want exit status 2\nstdout:\n%s", c.args, err, stdout.String())
			continue
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("stderr does not say %q:\n%s", c.want, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: printed before failing:\n%s", c.args, stdout.String())
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s: store directory exists (%v): the flag was checked after the store opened", c.args, err)
		}
	}
}
