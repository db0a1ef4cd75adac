package cli

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"hintm/internal/sim"
	"hintm/internal/workloads"
)

func TestHarnessFlagsRoundTrip(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	h := RegisterHarness(fs)
	err := fs.Parse([]string{
		"-scale", "small", "-large", "medium", "-workloads", "labyrinth,vacation",
		"-seed", "7", "-workers", "3", "-watchdog", "100", "-max-cycles", "200",
		"-faults", "spurious=0.01",
	})
	if err != nil {
		t.Fatal(err)
	}
	opts, err := h.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Scale != workloads.Small || opts.LargeScale != workloads.Medium {
		t.Errorf("scales: %v/%v", opts.Scale, opts.LargeScale)
	}
	if len(opts.Filter) != 2 || opts.Seed != 7 || opts.Workers != 3 ||
		opts.WatchdogCycles != 100 || opts.MaxCycles != 200 {
		t.Errorf("options: %+v", opts)
	}
	if !opts.Faults.Enabled() {
		t.Error("fault plan not parsed")
	}
}

func TestHarnessFlagsRejectBadScale(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	h := RegisterHarness(fs)
	if err := fs.Parse([]string{"-scale", "tiny"}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Options(); err == nil {
		t.Error("bad -scale accepted")
	}
}

func TestSimFlagsRoundTrip(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterSim(fs)
	if err := fs.Parse([]string{"-htm", "p8s", "-hints", "dyn", "-scale", "large", "-smt", "2", "-seed", "9", "-sig-bits", "256"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.HTM != sim.HTMP8S || cfg.Hints != sim.HintDynamic || cfg.SMT != 2 || cfg.Seed != 9 {
		t.Errorf("config: htm=%v hints=%v smt=%d seed=%d", cfg.HTM, cfg.Hints, cfg.SMT, cfg.Seed)
	}
	if cfg.SigBits != 256 {
		t.Errorf("sig bits: %d, want 256", cfg.SigBits)
	}

	// -sig-bits 0 keeps the config default rather than zeroing it.
	fs0 := flag.NewFlagSet("test", flag.ContinueOnError)
	f0 := RegisterSim(fs0)
	if err := fs0.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if cfg0, err := f0.Config(); err != nil || cfg0.SigBits != sim.DefaultConfig().SigBits {
		t.Errorf("default sig bits: %v, %v", cfg0.SigBits, err)
	}
	scale, err := f.Scale()
	if err != nil || scale != workloads.Large {
		t.Errorf("scale: %v, %v", scale, err)
	}

	// -sig-bits is bounded while the flags parse, before a signature of
	// that size could be allocated for every context.
	for bits, ok := range map[string]bool{"1048576": true, "1048577": false, "100000000000": false} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := RegisterSim(fs)
		err := fs.Parse([]string{"-sig-bits", bits})
		if ok && err != nil {
			t.Errorf("-sig-bits %s: %v", bits, err)
		} else if !ok && (err == nil || !strings.Contains(err.Error(), "must be at most 1048576")) {
			t.Errorf("-sig-bits %s: err = %v, want a parse error naming the bound", bits, err)
		} else if cfg, err := f.Config(); ok && (err != nil || cfg.SigBits != sim.MaxSigBits) {
			t.Errorf("-sig-bits %s: SigBits = %d (%v)", bits, cfg.SigBits, err)
		}
	}

	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	f2 := RegisterSim(fs2)
	if err := fs2.Parse([]string{"-htm", "p99"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Config(); err == nil {
		t.Error("bad -htm accepted")
	}
}

func TestOpenStore(t *testing.T) {
	st, err := OpenStore("")
	if err != nil || st != nil {
		t.Errorf("OpenStore(\"\") = %v, %v; want nil, nil", st, err)
	}
	st, err = OpenStore(t.TempDir())
	if err != nil || st == nil {
		t.Errorf("OpenStore(dir) = %v, %v", st, err)
	}
}

func TestContextTimeout(t *testing.T) {
	ctx, stop := Context(10 * time.Millisecond)
	defer stop()
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("timeout context never expired")
	}
}

// TestHarnessFlagsRejectNegativeCounts: a negative count is rejected while
// the flag set parses, in the harness and the simulator flag groups alike,
// so a binary exits 2 before it opens a store or runs anything.
func TestHarnessFlagsRejectNegativeCounts(t *testing.T) {
	harness := func(fs *flag.FlagSet) { RegisterHarness(fs) }
	simulator := func(fs *flag.FlagSet) { RegisterSim(fs) }
	for _, c := range []struct {
		register func(*flag.FlagSet)
		args     []string
	}{
		{harness, []string{"-workers", "-3"}},
		{harness, []string{"-watchdog", "-5"}},
		{harness, []string{"-max-cycles", "-5"}},
		{simulator, []string{"-watchdog", "-5"}},
		{simulator, []string{"-max-cycles", "-5"}},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		c.register(fs)
		name := c.args[len(c.args)-2]
		if err := fs.Parse(c.args); err == nil || !strings.Contains(err.Error(), name+": must not be negative") {
			t.Errorf("%v: err = %v, want a parse error naming %s", c.args, err, name)
		}
	}
}

// TestHarnessFlagsRejectUnknownWorkloads: every -workloads name must be a
// registered workload, listed once; a misspelling or a repeat fails in
// Options, before any figure could render its table over an empty
// selection or weigh a workload twice in its MEAN and GEOMEAN rows.
func TestHarnessFlagsRejectUnknownWorkloads(t *testing.T) {
	for _, c := range []struct{ list, want string }{
		{"bogus", "unknown workload"},
		{"labyrinth,bogus", "unknown workload"},
		{"labyrinth,", "unknown workload"},
		{"vacation,vacation,bayes", `"vacation" listed twice`},
		{"bayes,vacation,bayes", `"bayes" listed twice`},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		h := RegisterHarness(fs)
		if err := fs.Parse([]string{"-workloads", c.list}); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Options(); err == nil || !strings.Contains(err.Error(), "-workloads: ") ||
			!strings.Contains(err.Error(), c.want) {
			t.Errorf("-workloads %q: err = %v, want a usage error saying %s", c.list, err, c.want)
		}
	}
}
