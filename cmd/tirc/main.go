// Command tirc is the "compiler driver" for TIR workload modules: it builds
// a workload's IR, optionally runs HinTM's static classification passes, and
// dumps the result — the equivalent of inspecting the paper's LLVM pipeline
// output, with safe loads/stores rendered as load.safe / store.safe.
//
// Usage:
//
//	tirc [-classify] [-func name] [-scale s] [-threads n] <workload>
//	tirc [-classify] [-func name] -i module.tir
//
// With -i, the module is parsed from a textual TIR file (the same syntax
// tirc itself emits), enabling dump → edit → re-analyze round trips.
package main

import (
	"flag"
	"fmt"
	"os"

	"hintm/internal/classify"
	"hintm/internal/ir"
	"hintm/internal/workloads"
)

func main() {
	doClassify := flag.Bool("classify", false, "run the static classification passes before dumping")
	input := flag.String("i", "", "parse a textual TIR file instead of building a workload")
	funcName := flag.String("func", "", "dump only this function")
	scaleFlag := flag.String("scale", "small", "input scale: small|medium|large")
	threads := flag.Int("threads", 0, "thread count (0 = paper default)")
	flag.Parse()

	var mod *ir.Module
	if *input != "" {
		src, err := os.ReadFile(*input)
		if err != nil {
			fatal(err)
		}
		mod, err = ir.Parse(string(src))
		if err != nil {
			fatal(err)
		}
	} else {
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("usage: tirc [flags] <workload>; workloads: %v", workloads.Names()))
		}
		spec, err := workloads.ByName(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		var scale workloads.Scale
		switch *scaleFlag {
		case "small":
			scale = workloads.Small
		case "medium":
			scale = workloads.Medium
		case "large":
			scale = workloads.Large
		default:
			fatal(fmt.Errorf("unknown scale %q", *scaleFlag))
		}
		n := spec.DefaultThreads
		if *threads > 0 {
			n = *threads
		}
		mod = spec.Build(n, scale)
	}
	if *doClassify {
		rep, err := classify.Run(mod)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "classify: %v\n", rep)
	}
	if *funcName != "" {
		f := mod.Func(*funcName)
		if f == nil {
			fatal(fmt.Errorf("no function %q in module %s", *funcName, mod.Name))
		}
		fmt.Print(f.String())
		return
	}
	st := ir.CollectStats(mod)
	fmt.Fprintf(os.Stderr, "module stats: %+v\n", st)
	fmt.Print(mod.String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tirc:", err)
	os.Exit(1)
}
