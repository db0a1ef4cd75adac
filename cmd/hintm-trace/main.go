// Command hintm-trace records simulated memory-access traces and analyzes
// them offline — the trace-driven counterpart of the paper's §II-B
// "first-order estimation" study.
//
// Usage:
//
//	hintm-trace record -o trace.bin [-scale s] [-hints m] <workload>
//	hintm-trace report trace.bin
//
// `report` prints the sharing metrics (safe regions / safe transactional
// reads at 64 B and 4 KiB granularity) and a transaction-footprint limit
// study: the fraction of committed transactions that would overflow
// hypothetical buffer sizes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"hintm/internal/classify"
	"hintm/internal/htm"
	"hintm/internal/profile"
	"hintm/internal/sim"
	"hintm/internal/stats"
	"hintm/internal/trace"
	"hintm/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		fatal(fmt.Errorf("usage: hintm-trace record|report ..."))
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "report":
		report(os.Args[2:])
	default:
		fatal(fmt.Errorf("unknown subcommand %q", os.Args[1]))
	}
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("o", "trace.bin", "output trace file")
	htmFlag := fs.String("htm", "infcap", "baseline HTM: p8|p8s|l1tm|infcap (InfCap default: limit studies want every TX committed)")
	scaleFlag := fs.String("scale", "small", "input scale: small|medium|large")
	hintsFlag := fs.String("hints", "none", "hint mode: none|st|dyn|full")
	seed := fs.Uint64("seed", 1, "simulation seed")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("record: exactly one workload required (have %v)", workloads.Names()))
	}
	spec, err := workloads.ByName(fs.Arg(0))
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
	cfg := sim.DefaultConfig()
	cfg.Seed = *seed
	switch *htmFlag {
	case "p8":
	case "p8s":
		cfg.HTM = sim.HTMP8S
	case "l1tm":
		cfg.HTM = sim.HTML1TM
	case "infcap":
		cfg.HTM = sim.HTMInfCap
	default:
		fatal(fmt.Errorf("unknown htm %q", *htmFlag))
	}
	switch *hintsFlag {
	case "none":
	case "st":
		cfg.Hints = sim.HintStatic
	case "dyn":
		cfg.Hints = sim.HintDynamic
	case "full":
		cfg.Hints = sim.HintFull
	default:
		fatal(fmt.Errorf("unknown hints %q", *hintsFlag))
	}

	mod := spec.BuildDefault(scale)
	if _, err := classify.Run(mod); err != nil {
		fatal(err)
	}
	m, err := sim.New(cfg, mod)
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tw := trace.NewWriter(f)
	m.SetProfiler(tw)
	res, err := m.Run(context.Background())
	if err != nil {
		fatal(err)
	}
	if err := tw.Flush(); err != nil {
		fatal(err)
	}
	info, _ := f.Stat()
	fmt.Printf("recorded %s: %d events, %d bytes (%d commits, %d aborts)\n",
		*out, tw.Events(), info.Size(), res.Commits, res.TotalAborts())
}

func report(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	maxTID := fs.Int("max-worker-tid", 15, "highest worker thread id to include")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("report: exactly one trace file required"))
	}
	path := fs.Arg(0)

	// Pass 1: replay into the sharing profiler.
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	tr, err := trace.NewReader(f)
	if err != nil {
		fatal(err)
	}
	sharing := profile.NewSharing(*maxTID)
	var attempts, commits uint64
	aborts := make(map[htm.AbortReason]uint64)
	if err := tr.ForEach(func(ev trace.Event) error {
		switch ev.Kind {
		case trace.KindAccess:
			sharing.OnAccess(ev.TID, ev.Addr, ev.Write, ev.InTx)
		case trace.KindTxBegin:
			attempts++
		case trace.KindTxCommit:
			commits++
		case trace.KindTxAbort:
			aborts[ev.Reason]++
		}
		return nil
	}); err != nil {
		fatal(err)
	}
	f.Close()
	rep := sharing.Report()

	fmt.Println("sharing metrics (paper Fig. 1 methodology):")
	t := stats.NewTable("metric", "value")
	t.Row("touched blocks / pages", fmt.Sprintf("%d / %d", rep.Blocks, rep.Pages))
	t.Row("safe blocks", stats.Pct(rep.SafeBlockFrac))
	t.Row("safe pages", stats.Pct(rep.SafePageFrac))
	t.Row("TX accesses", rep.TxAccesses)
	t.Row("safe TX reads @64B", stats.Pct(rep.SafeReadFracBlock))
	t.Row("safe TX reads @4K", stats.Pct(rep.SafeReadFracPage))
	t.Render(os.Stdout)

	var totalAborts uint64
	for _, n := range aborts {
		totalAborts += n
	}
	fmt.Printf("\ntransaction outcomes: %d attempts, %d commits, %d aborts\n",
		attempts, commits, totalAborts)
	if totalAborts > 0 {
		ta := stats.NewTable("abort reason", "count", "share")
		for _, r := range htm.AbortReasons {
			if n := aborts[r]; n > 0 {
				ta.Row(r.String(), n, stats.Pct(float64(n)/float64(totalAborts)))
			}
		}
		ta.Render(os.Stdout)
	}

	// Pass 2: footprint limit study.
	f2, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f2.Close()
	sizes := []int{16, 32, 64, 128, 256, 512}
	lim, err := trace.LimitStudy(f2, sizes)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nfootprint limit study (%d committed TXs, mean %.1f blocks, max %d):\n",
		lim.CommittedTxs, lim.Footprints.Mean(), lim.Footprints.Max())
	t2 := stats.NewTable("buffer entries", "TXs overflowing")
	keys := make([]int, 0, len(lim.AbortFracAt))
	for k := range lim.AbortFracAt {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		t2.Row(k, stats.Pct(lim.AbortFracAt[k]))
	}
	t2.Render(os.Stdout)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hintm-trace:", err)
	os.Exit(1)
}
