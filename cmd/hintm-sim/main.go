// Command hintm-sim runs one workload on one machine configuration and
// prints the detailed simulation statistics.
//
// Usage:
//
//	hintm-sim [flags] <workload>
//	hintm-sim [flags] -module prog.tir
//	hintm-sim -dump [-func NAME] [-no-classify] [flags] <workload> | -module prog.tir
//	hintm-sim -print-config
//	hintm-sim -list
//
// Flags:
//
//	-htm p8|p8s|l1tm|infcap|stm
//	                           baseline HTM (default p8)
//	-hints none|st|dyn|full    HinTM mode (default none)
//	-scale small|medium|large  input scale (default medium)
//	-threads N                 override the paper's thread count (with -module:
//	                           the module's worker count, to size the machine)
//	-smt N                     hardware threads per core (default 1); the paper's
//	                           thread count is multiplied by N, and with N > 1
//	                           every core is shared, as in the Fig. 8 grid
//	-seed N                    simulation seed
//	-sig-bits N                P8S read-signature size in bits, at most 1048576
//	                           (0 = default 1024)
//	-timeout D                 abort the simulation after D (e.g. 30s)
//	-faults SPEC               fault-injection plan, e.g. "spurious=0.01,spurious-window=8"
//	-watchdog N                livelock watchdog: fail after N cycles without progress
//	-max-cycles N              hard cap on simulated cycles
//	-dump                      print the loaded TIR module and exit: classified
//	                           (load.safe/store.safe) unless -no-classify; the
//	                           text parses back with ir.Parse, so a dump can be
//	                           edited and run with -module
//	-func NAME                 print only function NAME of the module (implies -dump)
//	-trace-out FILE            write a Chrome trace-event JSON (ui.perfetto.dev)
//	-autopsy                   print the capacity-abort autopsy after the run
//	-sample-cycles N           counter-sample period for traced runs
//	                           (default 10000, 0 = off)
//	-cpuprofile/-memprofile    write Go pprof profiles of the simulator itself
//
// The machine is sized by the rule the figure harness uses
// (sim.Config.SizeFor), so any figure cell is one command away: Fig. 4 is
// -htm p8 -scale <scale>, Fig. 7 -htm p8s -scale large, Fig. 8 -htm l1tm
// -smt 2 -scale large, each with its -hints mode. Add -trace-out and
// -autopsy to see why a cell reads what it does.
//
// A watchdog trip prints a per-core diagnostic snapshot (thread positions,
// transaction states, retry counts, clocks, lock ownership) before exiting.
// The trace file is completed and the autopsy rendered even when the run
// fails — a livelocked run's trace is exactly the one worth reading.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"hintm/internal/classify"
	"hintm/internal/cli"
	"hintm/internal/harness"
	"hintm/internal/htm"
	"hintm/internal/ir"
	"hintm/internal/obs"
	"hintm/internal/sim"
	"hintm/internal/stats"
	"hintm/internal/workloads"
)

func main() {
	sf := cli.RegisterSim(flag.CommandLine)
	threads := cli.RegisterCount(flag.CommandLine, "threads", 0, "thread `count` (0 = paper default)")
	timeout := cli.RegisterTimeout(flag.CommandLine, "the simulation")
	printConfig := flag.Bool("print-config", false, "print the Table-II machine parameters and exit")
	list := flag.Bool("list", false, "list workloads and exit")
	moduleFile := flag.String("module", "", "run a hand-written textual TIR module instead of a workload")
	noClassify := flag.Bool("no-classify", false, "skip the static classification pass")
	dump := flag.Bool("dump", false, "print the loaded TIR module (classified unless -no-classify) and exit")
	funcName := flag.String("func", "", "print only function `NAME` of the module and exit (implies -dump)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file (open in ui.perfetto.dev)")
	autopsy := flag.Bool("autopsy", false, "print the capacity-abort autopsy report after the run")
	sampleCycles := cli.RegisterCount(flag.CommandLine, "sample-cycles", 10000, "sample counters every `N` cycles in traced runs (0 = off)")
	profiles := cli.RegisterProfiles(flag.CommandLine, "hintm-sim", "simulator")
	flag.Parse()

	stopProfiles, err := profiles.Start()
	if err != nil {
		fatal(err)
	}
	cleanup = stopProfiles
	defer stopProfiles()

	if *printConfig {
		harness.RenderTable2(os.Stdout)
		return
	}
	if *list {
		t := stats.NewTable("workload", "threads", "description")
		for _, s := range workloads.All() {
			t.Row(s.Name, s.DefaultThreads, s.Description)
		}
		t.Render(os.Stdout)
		return
	}
	if *moduleFile == "" && flag.NArg() != 1 {
		cleanup()
		fmt.Fprintln(os.Stderr, "usage: hintm-sim [flags] <workload>; see -list")
		os.Exit(2)
	}

	scale, err := sf.Scale()
	if err != nil {
		fatal(err)
	}
	cfg, err := sf.Config()
	if err != nil {
		fatal(err)
	}

	mod, name, n, err := program(&cfg, *moduleFile, flag.Arg(0), int(*threads), scale)
	if err != nil {
		fatal(err)
	}
	rep := &classify.Report{}
	if !*noClassify {
		if rep, err = classify.Run(mod); err != nil {
			fatal(err)
		}
	}
	if *funcName != "" {
		f := mod.Func(*funcName)
		if f == nil {
			fatal(fmt.Errorf("no function %q in module %s", *funcName, mod.Name))
		}
		fmt.Print(f.String())
		return
	}
	if *dump {
		fmt.Print(mod.String())
		return
	}

	// Observability sinks: the Chrome trace streams to disk, the collector
	// powers the autopsy. finishObs completes both even when the run fails.
	var tracers []obs.Tracer
	var chrome *obs.ChromeTracer
	var traceFile *os.File
	if *traceOut != "" {
		if traceFile, err = os.Create(*traceOut); err != nil {
			fatal(err)
		}
		chrome = obs.NewChromeTracer(traceFile)
		tracers = append(tracers, chrome)
	}
	var col *obs.Collector
	if *autopsy {
		col = obs.NewCollector()
		tracers = append(tracers, col)
	}
	cfg.SampleCycles = *sampleCycles
	finishObs := func() {
		if chrome != nil {
			if err := chrome.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "hintm-sim: trace:", err)
			} else if err := traceFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "hintm-sim: trace:", err)
			} else {
				fmt.Fprintf(os.Stderr, "trace: %d events written to %s (open in ui.perfetto.dev)\n",
					chrome.Events(), *traceOut)
			}
			chrome = nil
		}
		if col != nil {
			fmt.Println()
			col.Autopsy().Render(os.Stdout)
			col = nil
		}
	}

	m, err := sim.New(cfg, mod)
	if err != nil {
		fatal(err)
	}
	m.Observe(obs.Multi(tracers...))
	ctx, stop := cli.Context(*timeout)
	defer stop()
	res, err := run(ctx, m)
	if err != nil {
		finishObs()
		var lle *sim.LivelockError
		if errors.As(err, &lle) {
			fmt.Fprintln(os.Stderr, "hintm-sim:", lle)
			fmt.Fprint(os.Stderr, lle.Snapshot())
			cleanup()
			os.Exit(1)
		}
		fatal(err)
	}

	fmt.Printf("workload  %s (%s, %d threads, %v, %v)\n",
		name, scale, n, cfg.HTM, cfg.Hints)
	fmt.Printf("compiler  %v\n\n", rep)

	t := stats.NewTable("metric", "value")
	t.Row("cycles", res.Cycles)
	t.Row("instructions", res.Steps)
	t.Row("HTM commits", res.Commits)
	t.Row("fallback commits", res.FallbackCommits)
	for _, reason := range htm.AbortReasons {
		if n := res.Aborts[reason]; n > 0 {
			t.Row("aborts/"+reason.String(), n)
		}
	}
	t.Row("tx accesses static-safe", res.StaticSafeAccesses)
	t.Row("tx accesses dynamic-safe", res.DynSafeAccesses)
	t.Row("tx accesses unsafe", res.UnsafeTxAccesses)
	t.Row("page-mode cycles", fmt.Sprintf("%d (%s of runtime)",
		res.PageModeCycles, stats.Pct(res.PageModeCycleFraction())))
	t.Row("TX footprint mean (blocks)", fmt.Sprintf("%.1f", res.TxFootprints.Mean()))
	t.Row("TX footprint p95 (blocks)", res.TxFootprints.Percentile(0.95))
	t.Row("TX footprint max (blocks)", res.TxFootprints.Max())
	t.Row("L1 hit rate", stats.Pct(stats.Ratio(float64(res.Cache.L1Hits),
		float64(res.Cache.L1Hits+res.Cache.L1Misses))))
	t.Row("TLB misses", res.VM.TLBMisses)
	t.Row("page transitions", res.VM.Transitions)
	t.Render(os.Stdout)
	finishObs()
}

// program returns what to run: the textual TIR module at path when path is
// set, else the named workload built for its thread count at scale. threads
// overrides the workload's paper thread count; for a module it is the worker
// count its parallel region asks for (0 leaves the machine as configured).
// Either way cfg is sized for the threads by sim.Config.SizeFor, the rule
// the figure harness uses. It also returns the display name and the thread
// count.
func program(cfg *sim.Config, path, workload string, threads int, scale workloads.Scale) (*ir.Module, string, int, error) {
	var mod *ir.Module
	name := path
	if path != "" {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, "", 0, err
		}
		if mod, err = ir.Parse(string(src)); err != nil {
			return nil, "", 0, err
		}
	} else {
		spec, err := workloads.ByName(workload)
		if err != nil {
			return nil, "", 0, err
		}
		if threads == 0 {
			threads = spec.DefaultThreads * cfg.SMT
		}
		mod, name = spec.Build(threads, scale), spec.Name
	}
	cfg.SizeFor(threads)
	return mod, name, threads, nil
}

// run executes the machine, recovering panics (e.g. the fault layer's
// injected crash) into ordinary errors so the CLI reports them cleanly.
func run(ctx context.Context, m *sim.Machine) (res *sim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			if e, ok := v.(error); ok {
				err = fmt.Errorf("simulation panicked: %w", e)
			} else {
				err = fmt.Errorf("simulation panicked: %v", v)
			}
			res = nil
		}
	}()
	return m.Run(ctx)
}

// cleanup finalizes any armed profiles before an early exit; fatal and the
// livelock path call it because os.Exit skips deferred stops.
var cleanup = func() {}

func fatal(err error) {
	cleanup()
	fmt.Fprintln(os.Stderr, "hintm-sim:", err)
	os.Exit(1)
}
