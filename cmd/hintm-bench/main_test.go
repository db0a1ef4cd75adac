package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hintm/internal/harness"
)

// TestBenchDiffRejectsBadGates: a negative or NaN -tolerance or -min-wall is
// a usage error, not a comparison that fails identical files or passes
// everything.
func TestBenchDiffRejectsBadGates(t *testing.T) {
	const base = "../../BENCH_baseline.json"
	good := harness.DiffOptions{Tolerance: 0.05, MinWallSeconds: harness.DefaultMinWallSeconds}
	if err := runBenchDiff(base, base, good); err != nil {
		t.Fatalf("identical files with default gates: %v", err)
	}
	for _, c := range []struct {
		flag string
		o    harness.DiffOptions
	}{
		{"-tolerance", harness.DiffOptions{Tolerance: -1}},
		{"-tolerance", harness.DiffOptions{Tolerance: math.NaN()}},
		{"-min-wall", harness.DiffOptions{Tolerance: 0.05, MinWallSeconds: -1}},
		{"-min-wall", harness.DiffOptions{Tolerance: 0.05, MinWallSeconds: math.NaN()}},
	} {
		err := runBenchDiff(base, base, c.o)
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("%+v: err = %v, want a %s usage error", c.o, err, c.flag)
		}
	}
}

// TestRemovedTargetsAreUnknown: the SVG renderer and the intset extras
// sweep are gone, so their targets fail as unknown before anything runs.
func TestRemovedTargetsAreUnknown(t *testing.T) {
	for _, target := range []string{"extras", "svg"} {
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

// TestUnknownWorkloadRunsNoSimulation: a misspelled -workloads name fails
// before the store is opened or any figure renders, so nothing is printed
// (no all-zero "Run summary" table) and no store directory is created.
func TestUnknownWorkloadRunsNoSimulation(t *testing.T) {
	for _, target := range []string{"fig4", "all"} {
		dir := filepath.Join(t.TempDir(), "store")
		var out bytes.Buffer
		err := run([]string{"-scale", "small", "-results", "", "-store", dir, "-workloads", "bogus", target}, &out)
		if err == nil || !strings.Contains(err.Error(), `-workloads: workloads: unknown workload "bogus"`) {
			t.Errorf("%s: err = %v, want an unknown-workload usage error", target, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed before failing:\n%s", target, out.String())
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s: store directory exists (%v): the filter was checked after the store opened", target, err)
		}
	}
}
