package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hintm/internal/classify"
	"hintm/internal/cli"
	"hintm/internal/harness"
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
// runs share (sim.Config.SizeFor): -threads grows the machine to the fewest
// cores whose contexts hold every thread, and with -smt above 1 every core
// is shared. The 12-worker module case is also simulated to
// completion: on too few contexts its parallel region panics.
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
		{"", "labyrinth", 2, 12, 12, 6},  // SMT shares every core
		{"", "labyrinth", 2, 20, 20, 10}, // rounds up to whole cores
	} {
		cfg := sim.DefaultConfig()
		cfg.SMT = c.smt
		mod, _, n, err := program(&cfg, c.path, c.workload, c.threads, workloads.Small)
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

// TestProgramRunsTheHarnessMachine: for every workload and the machines of
// Figs. 4, 7 and 8, hintm-sim's flags build the machine the figure
// harness runs the cell on, so tracing a cell with hintm-sim traces that
// cell's run. No simulation runs.
func TestProgramRunsTheHarnessMachine(t *testing.T) {
	r := harness.NewRunner(harness.QuickOptions())
	for _, spec := range workloads.All() {
		for _, c := range []struct {
			flags string
			req   harness.Request
		}{
			{"-htm p8 -hints full", harness.Request{HTM: sim.HTMP8, Hints: sim.HintFull}},
			{"-htm p8s -hints full", harness.Request{HTM: sim.HTMP8S, Hints: sim.HintFull}},
			{"-htm l1tm -smt 2 -hints full", harness.Request{HTM: sim.HTML1TM, Hints: sim.HintFull, SMT: 2}},
		} {
			cfg := simConfig(t, c.flags)
			if _, _, _, err := program(&cfg, "", spec.Name, 0, workloads.Small); err != nil {
				t.Fatal(err)
			}
			c.req.Workload, c.req.Scale = spec.Name, workloads.Small
			want := r.ConfigFor(spec, c.req)
			if cfg.Cores != want.Cores || cfg.SMT != want.SMT || cfg.Cache != want.Cache {
				t.Errorf("%s %s: %d cores x %d SMT (cache for %d), harness runs %d x %d (cache for %d)",
					c.flags, spec.Name, cfg.Cores, cfg.SMT, cfg.Cache.Cores, want.Cores, want.SMT, want.Cache.Cores)
			}
		}
	}
}

// TestFig8CellsMatchHarness: hintm-sim's runs of Fig. 8's genome and yada
// HinTM cells, the cells whose 8 threads share 4 dual-threaded cores, are
// the harness's runs, result for result.
func TestFig8CellsMatchHarness(t *testing.T) {
	ctx := context.Background()
	r := harness.NewRunner(harness.QuickOptions())
	for _, wl := range []string{"genome", "yada"} {
		cfg := simConfig(t, "-htm l1tm -smt 2 -hints full")
		mod, _, _, err := program(&cfg, "", wl, 0, workloads.Small)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := classify.Run(mod); err != nil {
			t.Fatal(err)
		}
		m, err := sim.New(cfg, mod)
		if err != nil {
			t.Fatal(err)
		}
		got, err := run(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.Run(ctx, harness.Request{Workload: wl, Scale: workloads.Small, HTM: sim.HTML1TM, Hints: sim.HintFull, SMT: 2})
		if err != nil {
			t.Fatal(err)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if !bytes.Equal(gj, wj) {
			t.Errorf("%s: hintm-sim ran %d cycles, the harness's Fig. 8 cell %d; results differ", wl, got.Cycles, want.Cycles)
		}
	}
}

// simConfig parses hintm-sim's simulator flags.
func simConfig(t *testing.T, flags string) sim.Config {
	t.Helper()
	fs := flag.NewFlagSet("hintm-sim", flag.ContinueOnError)
	sf := cli.RegisterSim(fs)
	if err := fs.Parse(strings.Fields(flags)); err != nil {
		t.Fatal(err)
	}
	cfg, err := sf.Config()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestMain runs hintm-sim itself instead of the tests when HINTM_SIM_ARGS
// is set, so a test can run the command in a child process: the flag
// package and fatal exit it.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("HINTM_SIM_ARGS"); ok {
		os.Args = append([]string{"hintm-sim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// hintmSim runs hintm-sim with args in a child process.
func hintmSim(args string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "HINTM_SIM_ARGS="+args)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// TestNegativeTimeoutIsUsageError: a negative -timeout, a negative count
// (-threads among them, for a module and a workload alike), an -smt below
// 1, an oversized -sig-bits and a missing workload are usage errors (exit
// 2) before anything runs, not "no timeout" or a simulator config error.
func TestNegativeTimeoutIsUsageError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "twelve.tir")
	if err := os.WriteFile(path, []byte(twelveWorkers), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ args, want string }{
		{"-timeout -1s kmeans", "-timeout: must not be negative"},
		{"-watchdog -5 kmeans", "-watchdog: must not be negative"},
		{"-max-cycles -5 kmeans", "-max-cycles: must not be negative"},
		{"-sample-cycles -5 kmeans", "-sample-cycles: must not be negative"},
		{"-htm p8s -sig-bits 1048577 kmeans", "-sig-bits: must be at most 1048576"},
		{"-threads -1 -module " + path, "-threads: must not be negative"},
		{"-threads -1 kmeans", "-threads: must not be negative"},
		{"-smt 0 -threads 12 -module " + path, "-smt: must be at least 1"},
		{"-smt 0 kmeans", "-smt: must be at least 1"},
		{"-smt -1 kmeans", "-smt: must be at least 1"},
		{"", "usage: hintm-sim"},
	} {
		stdout, stderr, err := hintmSim("-scale small " + c.args)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("hintm-sim %s: err = %v, want exit status 2\nstdout:\n%s", c.args, err, stdout)
			continue
		}
		if !strings.Contains(stderr, c.want) {
			t.Errorf("stderr does not say %q:\n%s", c.want, stderr)
		}
		if stdout != "" {
			t.Errorf("%s: printed before failing:\n%s", c.args, stdout)
		}
	}
}

// TestSampleCyclesDefault: a traced run samples counters every 10000
// cycles by default, -sample-cycles sets the period, and 0 turns sampling
// off. Each sample is three counter events in the trace hintm-sim writes.
func TestSampleCyclesDefault(t *testing.T) {
	samples := func(flags string) int {
		path := filepath.Join(t.TempDir(), "trace.json")
		if _, stderr, err := hintmSim("-scale small -trace-out " + path + " " + flags + " kmeans"); err != nil {
			t.Fatalf("hintm-sim %s: %v\n%s", flags, err, stderr)
		}
		trace, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(trace, []byte(`"ph":"C"`)) / 3
	}
	def, off, fine := samples(""), samples("-sample-cycles 0"), samples("-sample-cycles 1000")
	if def == 0 || off != 0 || fine < 5*def {
		t.Errorf("counter samples: %d by default, %d with -sample-cycles 0, %d every 1000 cycles; want some, none, and ~10x the default",
			def, off, fine)
	}
}
