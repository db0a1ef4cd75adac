// Command hintm-exp runs the committed hypothesis catalogue.
//
// Usage:
//
//	hintm-exp [flags] [list|run]
//
// Targets:
//
//	list    print every registered hypothesis with its claim (no simulation)
//	run     evaluate the selected hypotheses and print their verdicts
//
// The committed FINDINGS.md files are pinned at small scale by
// `go test ./hypotheses -run TestFindings`, which also rewrites them with
// -update; run prints verdicts at any scale.
//
// Flags:
//
//	-hypothesis a,b   run only these hypotheses (comma-separated names, each
//	                  listed once; default: every registered hypothesis)
//	-scale small|medium|large   input scale for every grid cell (default small,
//	                  the scale the committed findings are generated at)
//	-store DIR        content-addressed result store; warm cells are recalled,
//	                  not re-simulated ("" = off)
//	-workers N        concurrent simulations (0 = GOMAXPROCS)
//	-timeout D        abort the whole run after D (e.g. 10m)
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

// run parses args, then lists or runs the selected hypotheses, printing to
// w. The target and the names are validated before any hypothesis is
// simulated.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("hintm-exp", flag.ExitOnError)
	names := fs.String("hypothesis", "", "comma-separated hypothesis names (default: all)")
	scaleFlag := fs.String("scale", "small", "input scale for every grid cell: small|medium|large")
	storeDir := cli.RegisterStore(fs)
	workers := cli.RegisterCount(fs, "workers", 0, "run at most `N` simulations at once (0 = GOMAXPROCS)")
	timeout := cli.RegisterTimeout(fs, "the whole run")
	fs.Parse(args)

	target := "list"
	if fs.NArg() > 0 {
		target = fs.Arg(0)
	}
	switch target {
	case "list", "run":
	case "check", "write":
		return fmt.Errorf("no target %q: the committed findings are checked by `go test ./hypotheses -run TestFindings` and rewritten by adding -update", target)
	default:
		return fmt.Errorf("unknown target %q (want list|run)", target)
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

	var simRuns, derived uint64
	for _, spec := range specs {
		e, err := eng.Run(ctx, spec)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		simRuns += e.SimRuns
		derived += e.Derived
		fmt.Fprintf(w, "%-28s %-12s sim-runs=%-3d derived=%-3d %s\n", spec.Name, e.Outcome.Verdict, e.SimRuns, e.Derived, e.Outcome.Reason)
	}
	fmt.Fprintf(w, "total sim-runs: %d derived=%d (store recalls excluded)\n", simRuns, derived)
	return nil
}

// selectSpecs resolves -hypothesis into a concrete spec list. Without it,
// every target gets the full catalogue. An unknown or repeated name is an
// error: a repeat would evaluate and print that hypothesis twice.
func selectSpecs(names string) ([]*hyp.Spec, error) {
	if names == "" {
		return hyp.All(), nil
	}
	var specs []*hyp.Spec
	seen := make(map[string]bool)
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		s, err := hyp.ByName(name)
		if err != nil {
			return nil, err
		}
		if seen[name] {
			return nil, fmt.Errorf("-hypothesis: %q listed twice", name)
		}
		seen[name] = true
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
