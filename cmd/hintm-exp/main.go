// Command hintm-exp runs the committed hypothesis catalogue.
//
// Usage:
//
//	hintm-exp [flags] [list|run|check|write]
//
// Targets:
//
//	list    print every registered hypothesis with its claim (no simulation)
//	run     evaluate the selected hypotheses and print their verdicts
//	check   run, then diff each committed FINDINGS.md byte-for-byte against
//	        the fresh evaluation; exit non-zero on any drift
//	write   run and regenerate the committed FINDINGS.md files in place
//
// Flags:
//
//	-hypothesis a,b   run only these hypotheses (comma-separated names;
//	                  default: every registered hypothesis)
//	-scale small|medium|large   input scale for every grid cell (default small,
//	                  the scale the committed findings are generated at)
//	-dir DIR          hypotheses tree root holding <name>/FINDINGS.md
//	                  (default "hypotheses")
//	-store DIR        content-addressed result store; warm cells are recalled,
//	                  not re-simulated ("" = off)
//	-workers N        concurrent simulations (0 = GOMAXPROCS)
//	-timeout D        abort the whole run after D (e.g. 10m)
//	-assert-warm      after running, exit non-zero if any cell actually
//	                  simulated or was derived from another cell's run
//	                  instead of recalled (CI uses this to prove the store
//	                  made the second pass free)
//
// Every hypothesis is a one-variable-at-a-time grid, and every grid runs on
// one harness Runner, so all cells share its single-flight dedup (a cell
// two hypotheses share simulates once) and the store.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	_ "hintm/hypotheses"
	"hintm/internal/cli"
	"hintm/internal/harness"
	"hintm/internal/hyp"
	"hintm/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hintm-exp:", err)
		os.Exit(1)
	}
}

// run parses args, then lists, runs, checks or writes the selected
// hypotheses, printing to w. The target is validated before any hypothesis
// is resolved or simulated.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("hintm-exp", flag.ExitOnError)
	names := fs.String("hypothesis", "", "comma-separated hypothesis names (default: all)")
	scaleFlag := fs.String("scale", "small", "input scale for every grid cell: small|medium|large")
	dir := fs.String("dir", "hypotheses", "hypotheses tree root holding <name>/FINDINGS.md")
	storeDir := cli.RegisterStore(fs)
	workers := cli.RegisterCount(fs, "workers", 0, "run at most `N` simulations at once (0 = GOMAXPROCS)")
	timeout := cli.RegisterTimeout(fs, "the whole run")
	assertWarm := fs.Bool("assert-warm", false, "exit non-zero if any cell simulated or was derived instead of recalling from the store")
	fs.Parse(args)

	target := "list"
	if fs.NArg() > 0 {
		target = fs.Arg(0)
	}
	switch target {
	case "list", "run", "check", "write":
	default:
		return fmt.Errorf("unknown target %q (want list|run|check|write)", target)
	}

	specs, err := selectSpecs(*names)
	if err != nil {
		return err
	}

	if target == "list" {
		list(w, specs)
		return nil
	}

	eng, err := newEngine(*scaleFlag, *storeDir, int(*workers))
	if err != nil {
		return err
	}
	ctx, stop := cli.Context(*timeout)
	defer stop()

	var failures []string
	var simRuns, derived uint64
	for _, spec := range specs {
		e, err := eng.Run(ctx, spec)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		simRuns += e.SimRuns
		derived += e.Derived
		fmt.Fprintf(w, "%-28s %-12s sim-runs=%-3d derived=%-3d %s\n", spec.Name, e.Outcome.Verdict, e.SimRuns, e.Derived, e.Outcome.Reason)
		switch target {
		case "write":
			if err := hyp.Write(e, *dir); err != nil {
				return err
			}
			fmt.Fprintf(w, "%-28s wrote %s\n", "", hyp.Path(*dir, spec))
		case "check":
			if err := hyp.Check(e, *dir); err != nil {
				failures = append(failures, err.Error())
			}
		}
	}
	fmt.Fprintf(w, "total sim-runs: %d derived=%d (store recalls excluded)\n", simRuns, derived)
	if len(failures) > 0 {
		return fmt.Errorf("%d hypothesis findings drifted:\n%s", len(failures), strings.Join(failures, "\n"))
	}
	if target == "check" {
		fmt.Fprintf(w, "check: %d hypotheses byte-identical to committed findings\n", len(specs))
	}
	if *assertWarm {
		return warm(simRuns, derived)
	}
	return nil
}

// warm is the -assert-warm check: a warm pass recalls every cell from the
// store, so it neither simulates a cell nor derives one (a derived cell
// missing from the store is not warm either).
func warm(simRuns, derived uint64) error {
	if simRuns > 0 || derived > 0 {
		return fmt.Errorf("assert-warm: %d cells simulated and %d derived instead of recalling from the store", simRuns, derived)
	}
	return nil
}

// selectSpecs resolves -hypothesis into a concrete spec list. Without it,
// every target gets the full catalogue.
func selectSpecs(names string) ([]*hyp.Spec, error) {
	if names == "" {
		return hyp.All(), nil
	}
	var specs []*hyp.Spec
	for _, name := range strings.Split(names, ",") {
		s, err := hyp.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

func list(w io.Writer, specs []*hyp.Spec) {
	for _, s := range specs {
		fmt.Fprintf(w, "%s\n  variable: %s; levels: %d; seeds: %d\n  %s\n", s.Name, s.Variable, len(s.Levels), len(s.Seeds), s.Claim)
	}
}

// newEngine builds the shared grid engine: default (non-quick) harness
// options at the flagged scale, with the optional store attached.
func newEngine(scale, storeDir string, workers int) (*hyp.Engine, error) {
	opts := harness.DefaultOptions()
	var err error
	if opts.Scale, err = workloads.ParseScale(scale); err != nil {
		return nil, err
	}
	opts.Workers = workers
	if opts.Store, err = cli.OpenStore(storeDir); err != nil {
		return nil, err
	}
	return &hyp.Engine{Opts: opts}, nil
}
