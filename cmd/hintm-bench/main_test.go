package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
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

// TestNegativeTimeoutIsUsageError: a negative -timeout is a usage error
// (exit 2) before the store opens or anything runs, not "no timeout". The
// command runs in a child process, since the flag package exits it.
func TestNegativeTimeoutIsUsageError(t *testing.T) {
	if args := os.Getenv("HINTM_BENCH_ARGS"); args != "" {
		if err := run(strings.Fields(args), os.Stdout); err != nil {
			t.Fatal(err)
		}
		return
	}
	dir := filepath.Join(t.TempDir(), "store")
	cmd := exec.Command(os.Args[0], "-test.run=^TestNegativeTimeoutIsUsageError$")
	cmd.Env = append(os.Environ(), "HINTM_BENCH_ARGS=-scale small -workloads kmeans -results= -timeout -1s -store "+dir+" fig4")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("hintm-bench -timeout -1s: err = %v, want exit status 2\nstdout:\n%s", err, stdout.String())
	}
	if !strings.Contains(stderr.String(), "-timeout: must not be negative") {
		t.Errorf("stderr does not name the -timeout usage error:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("printed before failing:\n%s", stdout.String())
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("store directory exists (%v): -timeout was checked after the store opened", err)
	}
}
