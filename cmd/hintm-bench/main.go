// Command hintm-bench regenerates the paper's evaluation figures.
//
// Usage:
//
//	hintm-bench [flags] [table1|table2|fig1|fig4|fig5|fig6|fig7|fig8|extras|export|svg|all]
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
//	-faults SPEC                fault-injection plan, e.g. "spurious=0.01,storm=0.001"
//	-watchdog N                 livelock watchdog: fail a run after N cycles without progress
//	-max-cycles N               hard cap on each run's simulated cycles
//	-trace-dir DIR              write per-run Chrome traces + abort autopsies into DIR
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
	hf := cli.RegisterHarness(flag.CommandLine)
	timeout := flag.Duration("timeout", 0, "abort the whole run after this duration (0 = none)")
	svgDir := flag.String("svg", "", "also render the figures as SVG files into this directory")
	results := flag.String("results", "BENCH_results.json", `write machine-readable headline metrics here on the "all" target ("" = off)`)
	storeDir := cli.RegisterStore(flag.CommandLine)
	tolerance := flag.Float64("tolerance", 0.05, `relative headline-metric tolerance for the "benchdiff" target`)
	minWall := flag.Float64("min-wall", harness.DefaultMinWallSeconds, `shortest baseline wall time (seconds) the "benchdiff" target gates in relative terms`)
	profiles := cli.RegisterProfiles(flag.CommandLine, "hintm-bench", "harness")
	flag.Parse()

	stopProfiles, err := profiles.Start()
	if err != nil {
		fatal(err)
	}
	cleanup = stopProfiles
	defer stopProfiles()

	opts, err := hf.Options()
	if err != nil {
		fatal(err)
	}
	// The content-addressed store makes repeated figure regeneration
	// warm-cache: any run already stored (by an earlier bench run or by
	// hintm-exp over the same directory) is recalled, not re-run.
	if opts.Store, err = cli.OpenStore(*storeDir); err != nil {
		fatal(err)
	}

	ctx, stop := cli.Context(*timeout)
	defer stop()

	r := harness.NewRunner(opts)
	target := "all"
	if flag.NArg() > 0 {
		target = flag.Arg(0)
	}
	switch target {
	case "fig1", "fig4", "fig5", "fig6", "fig7", "fig8":
		render := map[string]func(context.Context, io.Writer) error{
			"fig1": r.RenderFig1, "fig4": r.RenderFig4, "fig5": r.RenderFig5,
			"fig6": r.RenderFig6, "fig7": r.RenderFig7, "fig8": r.RenderFig8,
		}[target]
		before := r.Stats()
		err = render(ctx, os.Stdout)
		// Every run gets the production breakdown, not just "all": a
		// single-figure render shows its own cold/store-hit split the
		// same way.
		if ctx.Err() == nil {
			r.RenderRunSummary(os.Stdout, target, r.Stats().Sub(before))
		}
	case "extras":
		err = r.RenderExtras(ctx, os.Stdout)
	case "export":
		err = r.ExportAll(ctx, os.Stdout)
	case "benchdiff":
		// benchdiff never simulates: it loads two BENCH_results.json files
		// and exits non-zero when the new one regresses the baseline's
		// headline metrics beyond -tolerance.
		if flag.NArg() != 3 {
			fatal(fmt.Errorf("usage: hintm-bench [-tolerance F] [-min-wall S] benchdiff BASELINE.json CURRENT.json"))
		}
		err = runBenchDiff(flag.Arg(1), flag.Arg(2), harness.DiffOptions{Tolerance: *tolerance, MinWallSeconds: *minWall})
	case "table1":
		harness.RenderTable1(os.Stdout)
	case "table2":
		harness.RenderTable2(os.Stdout)
	case "svg":
		if *svgDir == "" {
			*svgDir = "figures"
		}
		err = r.WriteSVGs(ctx, *svgDir)
	case "all":
		start := time.Now()
		err = r.RenderAll(ctx, os.Stdout)
		if *svgDir != "" && ctx.Err() == nil {
			// Degraded text figures still produce SVGs for the cells that
			// succeeded; keep the first error for the exit summary.
			if serr := r.WriteSVGs(ctx, *svgDir); err == nil {
				err = serr
			}
		}
		if *results != "" && ctx.Err() == nil {
			// The memoized scheduler recalls every figure's runs, so the
			// summary is a pure reduction at this point.
			if rerr := writeResults(ctx, r, *results, time.Since(start)); err == nil {
				err = rerr
			}
		}
	default:
		err = fmt.Errorf("unknown target %q (want table1|table2|fig1|fig4|fig5|fig6|fig7|fig8|extras|export|svg|benchdiff|all)", target)
	}
	if err != nil {
		fatal(err)
	}
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
	regressions := harness.DiffBenchResultsOpts(base, cur, o)
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

var cleanup = func() {}

func fatal(err error) {
	cleanup()
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
