package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hintm/internal/sim"
	"hintm/internal/workloads"
)

// twelveWorkers is a module whose main forks 12 workers, more than the
// default machine's hardware contexts.
const twelveWorkers = `module twelve
global @x [16 words]

threadbody @worker(r0) regs=6 frame=0w {
entry:
	txbegin
	r1 = global @x
	r2 = load [r1+0]
	r3 = const 1
	r4 = add r2, r3
	store [r1+0], r4
	txend
	ret
}

func @main() regs=1 frame=0w {
entry:
	r0 = const 12
	parallel r0 x @worker[]
	ret
}
`

// TestProgramSizesMachine pins the sizing rule that -module and workload
// runs share: -threads grows the machine to the fewest cores whose contexts
// hold every thread. The 12-worker module case is also simulated to
// completion: on too few contexts its parallel region panics. A negative
// -threads and an -smt below 1 are usage errors, for a module and a
// workload alike.
func TestProgramSizesMachine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "twelve.tir")
	if err := os.WriteFile(path, []byte(twelveWorkers), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path, workload         string
		smt, threads           int
		wantThreads, wantCores int
	}{
		{path, "", 1, 12, 12, 12},        // the module's 12 workers
		{path, "", 1, 0, 0, 8},           // no override keeps the paper machine
		{"", "labyrinth", 1, 0, 8, 8},    // paper thread count already fits
		{"", "labyrinth", 1, 12, 12, 12}, // one thread per core
		{"", "labyrinth", 2, 12, 12, 8},  // 16 contexts already hold 12
		{"", "labyrinth", 2, 20, 20, 10}, // rounds up to whole cores
		{path, "", 1, -1, 0, 0},          // negative: a usage error
		{"", "kmeans", 1, -1, 0, 0},      // likewise for a workload
		{path, "", 0, 12, 0, 0},          // -smt 0: a usage error
		{"", "kmeans", 0, 0, 0, 0},       // likewise for a workload
		{"", "kmeans", -1, 0, 0, 0},      // and for a negative -smt
	} {
		cfg := sim.DefaultConfig()
		cfg.SMT = c.smt
		mod, _, n, err := program(&cfg, c.path, c.workload, c.threads, workloads.Small)
		if c.threads < 0 || c.smt < 1 {
			if err == nil {
				t.Errorf("%s%s -smt %d -threads %d: no error", c.path, c.workload, c.smt, c.threads)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if n != c.wantThreads || cfg.Cores != c.wantCores || cfg.Cache.Cores != cfg.Cores {
			t.Errorf("%s%s smt=%d -threads %d: %d threads on %d cores (cache for %d), want %d on %d",
				c.path, c.workload, c.smt, c.threads, n, cfg.Cores, cfg.Cache.Cores,
				c.wantThreads, c.wantCores)
			continue
		}
		if c.path == "" || c.threads == 0 {
			continue
		}
		m, err := sim.New(cfg, mod)
		if err != nil {
			t.Fatal(err)
		}
		res, err := run(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Commits + res.FallbackCommits; got != 12 {
			t.Errorf("commits = %d, want one per worker (12)", got)
		}
	}
}

// TestNegativeTimeoutIsUsageError: a negative -timeout is a usage error
// (exit 2) before anything runs, not "no timeout". The command runs in a
// child process, since the flag package exits it.
func TestNegativeTimeoutIsUsageError(t *testing.T) {
	if args := os.Getenv("HINTM_SIM_ARGS"); args != "" {
		os.Args = append([]string{"hintm-sim"}, strings.Fields(args)...)
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestNegativeTimeoutIsUsageError$")
	cmd.Env = append(os.Environ(), "HINTM_SIM_ARGS=-scale small -timeout -1s kmeans")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("hintm-sim -timeout -1s: err = %v, want exit status 2\nstdout:\n%s", err, stdout.String())
	}
	if !strings.Contains(stderr.String(), "-timeout: must not be negative") {
		t.Errorf("stderr does not name the -timeout usage error:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("printed before failing:\n%s", stdout.String())
	}
}
