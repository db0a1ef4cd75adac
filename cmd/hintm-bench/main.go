// Command hintm-bench regenerates the paper's evaluation figures.
//
// Usage:
//
//	hintm-bench [flags] [table1|table2|fig1|fig4|fig5|fig6|fig7|fig8|export|all]
//	hintm-bench [-tolerance F] [-min-wall S] benchdiff BASELINE.json CURRENT.json
//
// Flags:
//
//	-scale small|medium|large   input scale for the P8 figures (default medium)
//	-large small|medium|large   input scale for Fig 7/8 (default large)
//	-workloads a,b,c            restrict to a workload subset
//	-seed N                     simulation seed
//	-workers N                  concurrent simulations (0 = GOMAXPROCS)
//	-timeout D                  abort the whole run after D (e.g. 10m)
//	-faults SPEC                fault-injection plan, e.g. "spurious=0.01"
//	-watchdog N                 livelock watchdog: fail a run after N cycles without progress
//	-max-cycles N               hard cap on each run's simulated cycles
//	-results FILE               write machine-readable headline metrics ("all" target;
//	                            default BENCH_results.json, "" disables)
//	-store DIR                  recall/persist every run in a content-addressed
//	                            result store (warm-cache figure regeneration;
//	                            shared with hintm-exp)
//	-tolerance F                relative tolerance for the benchdiff target
//	                            (default 0.05)
//	-min-wall S                 shortest baseline wall time the benchdiff
//	                            target gates in relative terms (default 0.05)
//	-cpuprofile/-memprofile     write Go pprof profiles of the harness itself
//
// When individual runs fail (injected faults, watchdog trips, panics) the
// figures still render with the failed cells explicitly marked; the command
// then exits non-zero with a summary of every failure.
//
// To trace one figure cell, or read its capacity-abort autopsy, run it with
// hintm-sim -trace-out/-autopsy: hintm-sim sizes the machine by the same
// rule as this command, so its run is the cell's run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hintm/internal/cli"
	"hintm/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fatal(err)
	}
}

// run parses args and renders the selected target to w. An unknown target
// fails before any simulation runs.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("hintm-bench", flag.ExitOnError)
	hf := cli.RegisterHarness(fs)
	timeout := cli.RegisterTimeout(fs, "the whole run")
	results := fs.String("results", "BENCH_results.json", `write machine-readable headline metrics here on the "all" target ("" = off)`)
	storeDir := cli.RegisterStore(fs)
	tolerance := fs.Float64("tolerance", 0.05, `relative headline-metric tolerance for the "benchdiff" target`)
	minWall := fs.Float64("min-wall", harness.DefaultMinWallSeconds, `shortest baseline wall time (seconds) the "benchdiff" target gates in relative terms`)
	profiles := cli.RegisterProfiles(fs, "hintm-bench", "harness")
	fs.Parse(args)

	target := "all"
	if fs.NArg() > 0 {
		target = fs.Arg(0)
	}
	switch target {
	case "table1", "table2", "fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "export", "all":
	case "benchdiff":
		// benchdiff never simulates: it loads two BENCH_results.json files
		// and exits non-zero when the new one regresses the baseline's
		// headline metrics beyond -tolerance.
		if fs.NArg() != 3 {
			return fmt.Errorf("usage: hintm-bench [-tolerance F] [-min-wall S] benchdiff BASELINE.json CURRENT.json")
		}
		return runBenchDiff(fs.Arg(1), fs.Arg(2), harness.DiffOptions{Tolerance: *tolerance, MinWallSeconds: *minWall})
	default:
		return fmt.Errorf("unknown target %q (want table1|table2|fig1|fig4|fig5|fig6|fig7|fig8|export|benchdiff|all)", target)
	}

	stopProfiles, err := profiles.Start()
	if err != nil {
		return err
	}
	defer stopProfiles()

	opts, err := hf.Options()
	if err != nil {
		return err
	}
	// The content-addressed store makes repeated figure regeneration
	// warm-cache: any run already stored (by an earlier bench run or by
	// hintm-exp over the same directory) is recalled, not re-run.
	if opts.Store, err = cli.OpenStore(*storeDir); err != nil {
		return err
	}

	ctx, stop := cli.Context(*timeout)
	defer stop()

	r := harness.NewRunner(opts)
	switch target {
	case "fig1", "fig4", "fig5", "fig6", "fig7", "fig8":
		render := map[string]func(context.Context, io.Writer) error{
			"fig1": r.RenderFig1, "fig4": r.RenderFig4, "fig5": r.RenderFig5,
			"fig6": r.RenderFig6, "fig7": r.RenderFig7, "fig8": r.RenderFig8,
		}[target]
		before := r.Stats()
		err = render(ctx, w)
		// Every run gets the production breakdown, not just "all": a
		// single-figure render shows its own cold/store-hit split the
		// same way.
		if ctx.Err() == nil {
			r.RenderRunSummary(w, target, r.Stats().Sub(before))
		}
	case "export":
		err = r.ExportAll(ctx, w)
	case "table1":
		harness.RenderTable1(w)
	case "table2":
		harness.RenderTable2(w)
	case "all":
		start := time.Now()
		err = r.RenderAll(ctx, w)
		if *results != "" && ctx.Err() == nil {
			// The memoized scheduler recalls every figure's runs, so the
			// summary is a pure reduction at this point.
			if rerr := writeResults(ctx, r, *results, time.Since(start)); err == nil {
				err = rerr
			}
		}
	}
	return err
}

// runBenchDiff compares two headline-metric files and fails on regressions.
// A negative or NaN tolerance or minimum wall time is a usage error: the
// first flags identical files as regressed, the second gates nothing.
func runBenchDiff(basePath, curPath string, o harness.DiffOptions) error {
	if !(o.Tolerance >= 0) {
		return fmt.Errorf("-tolerance %v: must be a non-negative number", o.Tolerance)
	}
	if !(o.MinWallSeconds >= 0) {
		return fmt.Errorf("-min-wall %v: must be a non-negative number", o.MinWallSeconds)
	}
	load := func(path string) (*harness.BenchResults, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return harness.ReadBenchResults(f)
	}
	base, err := load(basePath)
	if err != nil {
		return err
	}
	cur, err := load(curPath)
	if err != nil {
		return err
	}
	regressions := harness.DiffBenchResults(base, cur, o)
	if len(regressions) == 0 {
		fmt.Printf("benchdiff: %s vs %s: no regressions beyond %.1f%% tolerance\n",
			basePath, curPath, o.Tolerance*100)
		return nil
	}
	return fmt.Errorf("benchdiff: %s regresses %s:\n%s",
		curPath, basePath, strings.Join(regressions, "\n"))
}

// writeResults reduces the run into BENCH_results.json-style headline
// metrics and writes them to path.
func writeResults(ctx context.Context, r *harness.Runner, path string, wall time.Duration) error {
	sum, err := r.BenchResults(ctx)
	if err != nil {
		return err
	}
	sum.WallSeconds = wall.Seconds()
	if sum.WallSeconds > 0 {
		sum.SimCyclesPerSec = float64(sum.SimCycles) / sum.WallSeconds
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sum.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "results: wrote %s\n", path)
	return nil
}

func fatal(err error) {
	// Joined errors (one per failed run) print one per line under a single
	// summary header, so a degraded campaign reads as a failure list.
	lines := strings.Split(err.Error(), "\n")
	if len(lines) > 1 {
		fmt.Fprintf(os.Stderr, "hintm-bench: %d errors:\n", len(lines))
		for _, l := range lines {
			fmt.Fprintln(os.Stderr, "  "+l)
		}
	} else {
		fmt.Fprintln(os.Stderr, "hintm-bench:", err)
	}
	os.Exit(1)
}
