// Package cli is the shared command-line surface of the hintm binaries.
//
// hintm-sim, hintm-bench, and hintm-exp configure the same machinery —
// input scales, HTM kind and hint mode, seeds, fault plans, the result
// store, worker counts, timeouts. The flag groups live here once, so their
// defaults and usage text agree: a binary registers the group(s) it needs
// on its FlagSet and asks the group for the parsed, validated
// configuration. Spellings are validated with one parser per kind
// (workloads.ParseScale, sim.ParseHTMKind, sim.ParseHintMode), so every
// binary accepts exactly the same values.
package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hintm/internal/fault"
	"hintm/internal/harness"
	"hintm/internal/sim"
	"hintm/internal/store"
	"hintm/internal/workloads"
)

// ---- harness options (hintm-bench) --------------------------------------

// HarnessFlags collects the scheduler-facing flags. Register with
// RegisterHarness, then call Options after flag parsing.
type HarnessFlags struct {
	scale     *string
	large     *string
	workloads *string
	seed      *uint64
	workers   *int64
	faults    *string
	watchdog  *int64
	maxCycles *int64
}

// RegisterHarness registers the shared scheduler flags (-scale, -large,
// -workloads, -seed, -workers, -faults, -watchdog, -max-cycles) on fs.
func RegisterHarness(fs *flag.FlagSet) *HarnessFlags {
	h := &HarnessFlags{}
	h.scale = fs.String("scale", "medium", "input scale for requests and P8 figures: small|medium|large")
	h.large = fs.String("large", "large", "input scale for Fig 7/8: small|medium|large")
	h.workloads = fs.String("workloads", "", "comma-separated workload subset")
	h.seed = fs.Uint64("seed", 1, "simulation seed (part of every store key)")
	h.workers = RegisterCount(fs, "workers", 0, "run at most `N` simulations at once (0 = GOMAXPROCS)")
	h.faults = fs.String("faults", "", `fault-injection plan, e.g. "spurious=0.01,spurious-window=8"`)
	h.watchdog = RegisterCount(fs, "watchdog", 0, "fail a run after `N` cycles without forward progress (0 = off)")
	h.maxCycles = RegisterCount(fs, "max-cycles", 0, "hard cap of `N` simulated cycles on each run (0 = none)")
	return h
}

// Options validates the parsed flags into harness.Options.
func (h *HarnessFlags) Options() (harness.Options, error) {
	opts := harness.DefaultOptions()
	var err error
	if opts.Scale, err = workloads.ParseScale(*h.scale); err != nil {
		return opts, err
	}
	if opts.LargeScale, err = workloads.ParseScale(*h.large); err != nil {
		return opts, err
	}
	if *h.workloads != "" {
		opts.Filter = strings.Split(*h.workloads, ",")
		// An unknown or repeated name is a usage error here, before any
		// store is opened or any figure renders a table: a repeat would
		// print its rows twice and count them twice in the means.
		seen := make(map[string]bool)
		for _, name := range opts.Filter {
			if _, err := workloads.ByName(name); err != nil {
				return opts, fmt.Errorf("-workloads: %w", err)
			}
			if seen[name] {
				return opts, fmt.Errorf("-workloads: %q listed twice", name)
			}
			seen[name] = true
		}
	}
	opts.Seed = *h.seed
	opts.Workers = int(*h.workers)
	if opts.Faults, err = fault.ParsePlan(*h.faults); err != nil {
		return opts, err
	}
	opts.WatchdogCycles = *h.watchdog
	opts.MaxCycles = *h.maxCycles
	return opts, nil
}

// ---- simulator config (hintm-sim) --------------------------------------

// SimFlags collects the per-run simulator flags. Register with
// RegisterSim, then call Config/Scale after flag parsing.
type SimFlags struct {
	htm       *string
	hints     *string
	scale     *string
	smt       *int
	seed      *uint64
	sigBits   *uint64
	faults    *string
	watchdog  *int64
	maxCycles *int64
}

// RegisterSim registers the shared single-run flags (-htm, -hints, -scale,
// -smt, -seed, -sig-bits, -faults, -watchdog, -max-cycles) on fs.
func RegisterSim(fs *flag.FlagSet) *SimFlags {
	f := &SimFlags{}
	f.htm = fs.String("htm", "p8", "baseline HTM: p8|p8s|l1tm|infcap|stm")
	f.hints = fs.String("hints", "none", "hint mode: none|st|dyn|full")
	f.scale = fs.String("scale", "medium", "input scale: small|medium|large")
	f.smt = new(int)
	*f.smt = 1
	fs.Func("smt", "hardware threads per core, `N` >= 1 (default 1)", func(s string) error {
		n, err := strconv.Atoi(s)
		if err != nil {
			return err
		}
		if n < 1 {
			return fmt.Errorf("must be at least 1")
		}
		*f.smt = n
		return nil
	})
	f.seed = fs.Uint64("seed", 1, "simulation seed")
	f.sigBits = new(uint64)
	fs.Func("sig-bits", fmt.Sprintf("P8S read-signature size in `bits`, at most %d (default: the config's, 1024)", sim.MaxSigBits), func(s string) error {
		n, err := strconv.ParseUint(s, 0, 64)
		if err != nil {
			return err
		}
		if n > sim.MaxSigBits {
			return fmt.Errorf("must be at most %d", sim.MaxSigBits)
		}
		*f.sigBits = n
		return nil
	})
	f.faults = fs.String("faults", "", `fault-injection plan, e.g. "spurious=0.01,spurious-window=8"`)
	f.watchdog = RegisterCount(fs, "watchdog", 0, "fail after `N` cycles without forward progress (0 = off)")
	f.maxCycles = RegisterCount(fs, "max-cycles", 0, "hard cap of `N` simulated cycles (0 = none)")
	return f
}

// Config validates the parsed flags into a sim.Config seeded from
// sim.DefaultConfig.
func (f *SimFlags) Config() (sim.Config, error) {
	cfg := sim.DefaultConfig()
	cfg.Seed = *f.seed
	cfg.SMT = *f.smt
	if *f.sigBits != 0 {
		cfg.SigBits = *f.sigBits
	}
	var err error
	if cfg.Faults, err = fault.ParsePlan(*f.faults); err != nil {
		return cfg, err
	}
	cfg.WatchdogCycles = *f.watchdog
	cfg.MaxCycles = *f.maxCycles
	if cfg.HTM, err = sim.ParseHTMKind(*f.htm); err != nil {
		return cfg, err
	}
	if cfg.Hints, err = sim.ParseHintMode(*f.hints); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// Scale parses the -scale flag.
func (f *SimFlags) Scale() (workloads.Scale, error) {
	return workloads.ParseScale(*f.scale)
}

// ---- counts -------------------------------------------------------------

// RegisterCount registers a non-negative integer flag on fs. A negative
// value is rejected while fs parses, like a negative -timeout: with
// flag.ExitOnError it exits 2 before any store opens or any run starts,
// where the simulator would otherwise reject each run's config.
func RegisterCount(fs *flag.FlagSet, name string, value int64, usage string) *int64 {
	n := value
	fs.Var((*countFlag)(&n), name, usage)
	return &n
}

// countFlag is a flag.Value for a non-negative int64.
type countFlag int64

func (c *countFlag) String() string { return strconv.FormatInt(int64(*c), 10) }

func (c *countFlag) Set(s string) error {
	n, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("must not be negative")
	}
	*c = countFlag(n)
	return nil
}

// ---- result store -------------------------------------------------------

// RegisterStore registers the -store flag; the store is off by default.
func RegisterStore(fs *flag.FlagSet) *string {
	return fs.String("store", "", `recall/persist every run in this content-addressed result store directory ("" = off)`)
}

// OpenStore opens the flagged store directory; "" means no store (nil).
func OpenStore(dir string) (*store.Store, error) {
	if dir == "" {
		return nil, nil
	}
	return store.Open(dir)
}

// ---- lifecycle ----------------------------------------------------------

// RegisterTimeout registers -timeout on fs: abort what (e.g. "the whole
// run") after this duration, 0 meaning never. A negative duration is
// rejected while fs parses, so with flag.ExitOnError it exits 2 before any
// store opens or any simulation starts.
func RegisterTimeout(fs *flag.FlagSet, what string) *time.Duration {
	d := new(time.Duration)
	fs.Var((*durationFlag)(d), "timeout", "abort "+what+" after this `duration` (0 = none)")
	return d
}

// durationFlag is a flag.Value for a non-negative time.Duration.
type durationFlag time.Duration

func (t *durationFlag) String() string { return time.Duration(*t).String() }

func (t *durationFlag) Set(s string) error {
	d, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	if d < 0 {
		return fmt.Errorf("must not be negative")
	}
	*t = durationFlag(d)
	return nil
}

// Context returns a context cancelled by SIGINT/SIGTERM — containerized
// and service-managed runs get the same graceful path as an interactive
// ^C — and additionally by the timeout when it is > 0.
func Context(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	tctx, cancel := context.WithTimeout(ctx, timeout)
	return tctx, func() { cancel(); stop() }
}

// ---- pprof profiles ------------------------------------------------------

// ProfileFlags collects the -cpuprofile/-memprofile flags.
type ProfileFlags struct {
	prog string
	cpu  *string
	mem  *string
}

// RegisterProfiles registers -cpuprofile and -memprofile on fs; prog
// prefixes error output (e.g. "hintm-sim").
func RegisterProfiles(fs *flag.FlagSet, prog, of string) *ProfileFlags {
	p := &ProfileFlags{prog: prog}
	p.cpu = fs.String("cpuprofile", "", "write a Go CPU profile of the "+of+" to this file")
	p.mem = fs.String("memprofile", "", "write a Go heap profile of the "+of+" to this file")
	return p
}

// Start arms the requested profiles and returns the stop function that
// finalizes them. stop runs at most once, so it is safe to both defer it
// and call it explicitly on early-exit paths (os.Exit skips defers).
func (p *ProfileFlags) Start() (stop func(), err error) {
	if *p.cpu != "" {
		f, err := os.Create(*p.cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if *p.cpu != "" {
			pprof.StopCPUProfile()
		}
		if *p.mem != "" {
			f, err := os.Create(*p.mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: memprofile: %v\n", p.prog, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "%s: memprofile: %v\n", p.prog, err)
			}
		}
	}, nil
}
