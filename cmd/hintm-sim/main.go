// Command hintm-sim runs one workload on one machine configuration and
// prints the detailed simulation statistics.
//
// Usage:
//
//	hintm-sim [flags] <workload>
//	hintm-sim [flags] -module prog.tir
//	hintm-sim -print-config
//	hintm-sim -list
//
// Flags:
//
//	-htm p8|p8s|l1tm|infcap    baseline HTM (default p8)
//	-hints none|st|dyn|full    HinTM mode (default none)
//	-scale small|medium|large  input scale (default medium)
//	-threads N                 override the paper's thread count (with -module:
//	                           the module's worker count, to size the machine)
//	-smt N                     hardware threads per core (default 1)
//	-seed N                    simulation seed
//	-sig-bits N                P8S read-signature size in bits (0 = default 1024)
//	-timeout D                 abort the simulation after D (e.g. 30s)
//	-faults SPEC               fault-injection plan, e.g. "spurious=0.01,spurious-window=8"
//	-watchdog N                livelock watchdog: fail after N cycles without progress
//	-max-cycles N              hard cap on simulated cycles
//	-trace-out FILE            write a Chrome trace-event JSON (ui.perfetto.dev)
//	-autopsy                   print the capacity-abort autopsy after the run
//	-sample-cycles N           counter-sample period for traced runs
//	-cpuprofile/-memprofile    write Go pprof profiles of the simulator itself
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

	"hintm/internal/cache"
	"hintm/internal/classify"
	"hintm/internal/cli"
	"hintm/internal/htm"
	"hintm/internal/ir"
	"hintm/internal/obs"
	"hintm/internal/sim"
	"hintm/internal/stats"
	"hintm/internal/workloads"
)

func main() {
	sf := cli.RegisterSim(flag.CommandLine)
	threads := flag.Int("threads", 0, "thread count (0 = paper default)")
	timeout := cli.RegisterTimeout(flag.CommandLine, "the simulation")
	printConfig := flag.Bool("print-config", false, "print the Table-II machine parameters and exit")
	list := flag.Bool("list", false, "list workloads and exit")
	moduleFile := flag.String("module", "", "run a hand-written textual TIR module instead of a workload")
	noClassify := flag.Bool("no-classify", false, "skip the static classification pass")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file (open in ui.perfetto.dev)")
	autopsy := flag.Bool("autopsy", false, "print the capacity-abort autopsy report after the run")
	sampleCycles := flag.Int64("sample-cycles", 10000, "counter-sample period in cycles for traced runs (0 = off)")
	profiles := cli.RegisterProfiles(flag.CommandLine, "hintm-sim", "simulator")
	flag.Parse()

	stopProfiles, err := profiles.Start()
	if err != nil {
		fatal(err)
	}
	cleanup = stopProfiles
	defer stopProfiles()

	if *printConfig {
		renderConfig(sim.DefaultConfig())
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
		fatal(fmt.Errorf("usage: hintm-sim [flags] <workload>; see -list"))
	}

	scale, err := sf.Scale()
	if err != nil {
		fatal(err)
	}
	cfg, err := sf.Config()
	if err != nil {
		fatal(err)
	}

	mod, name, n, err := program(&cfg, *moduleFile, flag.Arg(0), *threads, scale)
	if err != nil {
		fatal(err)
	}
	rep := &classify.Report{}
	if !*noClassify {
		if rep, err = classify.Run(mod); err != nil {
			fatal(err)
		}
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
	if len(tracers) > 0 {
		cfg.Tracer = obs.Multi(tracers...)
		cfg.SampleCycles = *sampleCycles
	}
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
// Either way cfg grows to the fewest cores whose hardware contexts hold every
// thread, with the cache hierarchy sized to match. It also returns the
// display name and the thread count.
func program(cfg *sim.Config, path, workload string, threads int, scale workloads.Scale) (*ir.Module, string, int, error) {
	if threads < 0 {
		return nil, "", 0, fmt.Errorf("-threads %d: must not be negative", threads)
	}
	if cfg.SMT < 1 {
		return nil, "", 0, fmt.Errorf("-smt %d: must be at least 1", cfg.SMT)
	}
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
	if threads > cfg.Contexts() {
		cfg.Cores = (threads + cfg.SMT - 1) / cfg.SMT
		cfg.Cache = cache.DefaultConfig(cfg.Cores)
	}
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

func renderConfig(cfg sim.Config) {
	t := stats.NewTable("parameter", "value (paper Table II / §V)")
	t.Row("cores", fmt.Sprintf("%d 64-bit, in-order timing model", cfg.Cores))
	t.Row("L1d", fmt.Sprintf("%d sets x %d ways x 64B = 32KB, %d-cycle",
		cfg.Cache.L1Sets, cfg.Cache.L1Ways, cfg.Cache.L1Latency))
	t.Row("L2", fmt.Sprintf("%d sets x %d ways x 64B = 8MB shared, %d-cycle",
		cfg.Cache.L2Sets, cfg.Cache.L2Ways, cfg.Cache.L2Latency))
	t.Row("memory", fmt.Sprintf("%d-cycle", cfg.Cache.MemLatency))
	t.Row("coherence", "snoopy MESI")
	t.Row("HTM buffer (P8)", fmt.Sprintf("%d-entry fully associative", cfg.P8Entries))
	t.Row("signature (P8S)", fmt.Sprintf("%d-bit PBX, %d hashes", cfg.SigBits, cfg.SigHashes))
	t.Row("TLB", fmt.Sprintf("%d entries/context, %d-cycle walk", cfg.TLBEntries, cfg.VM.TLBMiss))
	t.Row("minor fault", fmt.Sprintf("%d cycles", cfg.VM.MinorFault))
	t.Row("TLB shootdown", fmt.Sprintf("%d init / %d slave cycles",
		cfg.VM.ShootdownInitiator, cfg.VM.ShootdownSlave))
	t.Row("conflict retries", fmt.Sprintf("%d, then fallback lock", cfg.MaxConflictRetries))
	t.Render(os.Stdout)
}

// cleanup finalizes any armed profiles before an early exit; fatal and the
// livelock path call it because os.Exit skips deferred stops.
var cleanup = func() {}

func fatal(err error) {
	cleanup()
	fmt.Fprintln(os.Stderr, "hintm-sim:", err)
	os.Exit(1)
}
