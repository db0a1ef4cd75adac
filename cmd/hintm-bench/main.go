// Command hintm-bench regenerates the paper's evaluation figures.
//
// Usage:
//
//	hintm-bench [flags] [table1|table2|fig1|fig4|fig5|fig6|fig7|fig8|all]
//	hintm-bench benchdiff BASELINE.json CURRENT.json
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
//	-results FILE               write the results document the "all" target rendered
//	                            (default BENCH_results.json, "" disables)
//	-store DIR                  recall/persist every run in a content-addressed
//	                            result store (warm-cache figure regeneration;
//	                            shared with hintm-exp)
//	-cpuprofile/-memprofile     write Go pprof profiles of the harness itself
//
// When individual runs fail (injected faults, watchdog trips, panics) the
// figures still render with the failed cells explicitly marked; the command
// then exits non-zero with a summary of every failure.
//
// benchdiff compares two results documents written by "all" and exits
// non-zero when the current one is not comparable with the baseline, made
// different production counts, or took over 1.5x the baseline's wall time
// (see harness.DiffBenchResults).
//
// To trace one figure cell, or read its capacity-abort autopsy, run it with
// hintm-sim -trace-out/-autopsy: hintm-sim sizes the machine by the same
// rule as this command, so its run is the cell's run.
package main

import (
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
	results := fs.String("results", "BENCH_results.json", `write the results document the "all" target rendered here ("" = off)`)
	storeDir := cli.RegisterStore(fs)
	profiles := cli.RegisterProfiles(fs, "hintm-bench", "harness")
	fs.Parse(args)

	target := "all"
	if fs.NArg() > 0 {
		target = fs.Arg(0)
	}
	switch target {
	case "table1", "table2", "fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "all":
	case "benchdiff":
		// benchdiff never simulates: it loads two results documents.
		if fs.NArg() != 3 {
			return fmt.Errorf("usage: hintm-bench benchdiff BASELINE.json CURRENT.json")
		}
		return runBenchDiff(fs.Arg(1), fs.Arg(2), w)
	default:
		return fmt.Errorf("unknown target %q (want table1|table2|fig1|fig4|fig5|fig6|fig7|fig8|benchdiff|all)", target)
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
	case "table1":
		harness.RenderTable1(w)
		return nil
	case "table2":
		harness.RenderTable2(w)
		return nil
	}
	// Every other target renders the results document: a single figure's
	// holds that figure's section, "all" holds all six and also writes the
	// document to -results.
	var figures []string
	if strings.HasPrefix(target, "fig") {
		figures = []string{target}
	}
	start := time.Now()
	doc, err := r.BenchResults(ctx, figures...)
	if err != nil {
		return err
	}
	doc.WallSeconds = time.Since(start).Seconds()
	if doc.WallSeconds > 0 {
		doc.SimCyclesPerSec = float64(doc.SimCycles) / doc.WallSeconds
	}
	doc.Render(w)
	err = doc.Err()
	if target == "all" && *results != "" {
		if werr := writeResults(doc, *results); err == nil {
			err = werr
		}
	}
	return err
}

// runBenchDiff compares two results documents and fails on regressions.
func runBenchDiff(basePath, curPath string, w io.Writer) error {
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
	regressions := harness.DiffBenchResults(base, cur)
	if len(regressions) == 0 {
		fmt.Fprintf(w, "benchdiff: %s vs %s: same production, wall time %.2f s -> %.2f s\n",
			basePath, curPath, base.WallSeconds, cur.WallSeconds)
		return nil
	}
	fmt.Fprintf(w, "benchdiff: %s vs %s:\n%s\n", basePath, curPath, strings.Join(regressions, "\n"))
	return fmt.Errorf("benchdiff: %s regresses %s", curPath, basePath)
}

// writeResults writes the results document to path.
func writeResults(doc *harness.BenchResults, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := doc.WriteJSON(f); err != nil {
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
