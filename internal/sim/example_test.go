package sim_test

import (
	"context"
	"fmt"
	"log"

	"hintm/internal/classify"
	"hintm/internal/ir"
	"hintm/internal/sim"
)

const (
	qsThreads = 8
	qsBlocks  = 90 // private blocks touched per TX: exceeds P8's 64 entries
	qsRounds  = 8
)

// quickstartModule writes the demo program directly with the IR builder —
// this is what a workload kernel looks like under the hood.
func quickstartModule() *ir.Module {
	b := ir.NewBuilder("quickstart")
	b.Global("results", qsThreads*8) // one block per thread

	w := b.ThreadBody("worker", 1)
	tid := w.Param(0)
	buf := w.MallocI(qsBlocks * 64)

	// for r := 0; r < qsRounds; r++ { TX { fill buf; results[tid] = sum } }
	loop := w.NewBlock("loop")
	fill := w.NewBlock("fill")
	fillDone := w.NewBlock("filldone")
	done := w.NewBlock("done")

	r := w.C(0)
	i := w.C(0)
	sum := w.C(0)
	w.Br(loop)

	w.SetBlock(loop)
	w.TxBegin()
	w.MovTo(i, w.C(0))
	w.MovTo(sum, w.C(0))
	w.Br(fill)

	w.SetBlock(fill) // rotated loop: provably initializes buf
	off := w.Mul(i, w.C(64))
	v := w.Add(tid, i)
	w.Store(w.Add(buf, off), 0, v) // private, initializing -> safe
	w.MovTo(sum, w.Add(sum, w.Load(w.Add(buf, off), 0)))
	w.MovTo(i, w.Add(i, w.C(1)))
	c := w.Cmp(ir.CmpLT, i, w.C(qsBlocks))
	w.CondBr(c, fill, fillDone)

	w.SetBlock(fillDone)
	res := w.GlobalAddr("results")
	slot := w.Mul(tid, w.C(64))       // one block per thread: no false sharing
	w.Store(w.Add(res, slot), 0, sum) // shared -> stays tracked
	w.TxEnd()
	w.MovTo(r, w.Add(r, w.C(1)))
	c2 := w.Cmp(ir.CmpLT, r, w.C(qsRounds))
	w.CondBr(c2, loop, done)

	w.SetBlock(done)
	w.FreeI(buf, qsBlocks*64)
	w.RetVoid()

	mn := b.Function("main", 0)
	n := mn.C(qsThreads)
	mn.Parallel(n, "worker")
	mn.RetVoid()
	return b.M
}

func quickstartRun(mod *ir.Module, hints sim.HintMode) *sim.Result {
	cfg := sim.DefaultConfig()
	cfg.Hints = hints
	m, err := sim.New(cfg, mod)
	if err != nil {
		log.Fatal(err)
	}
	res, err := m.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// Example_quickstart builds a tiny transactional program in TIR, runs
// HinTM's static classifier over it, and simulates it on a POWER8-style HTM
// with and without safety hints.
//
// The program is the classic capacity-abort victim: each thread fills a
// thread-private heap buffer inside a transaction (90 cache blocks, more
// than the P8 buffer's 64 entries) and then publishes one result word to a
// shared array. A conventional HTM tracks every access and aborts; HinTM's
// compiler proves the buffer thread-private and the HTM tracks only the
// single unsafe store.
//
// Run: go test -run Example -v ./internal/sim
func Example_quickstart() {
	mod := quickstartModule()
	rep, err := classify.Run(mod)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("static classification:", rep)

	base := quickstartRun(mod, sim.HintNone)
	hinted := quickstartRun(mod, sim.HintStatic)

	fmt.Printf("\n%-22s %14s %14s\n", "", "baseline P8", "P8 + HinTM-st")
	fmt.Printf("%-22s %14d %14d\n", "cycles", base.Cycles, hinted.Cycles)
	fmt.Printf("%-22s %14d %14d\n", "HTM commits", base.Commits, hinted.Commits)
	fmt.Printf("%-22s %14d %14d\n", "fallback (serialized)", base.FallbackCommits, hinted.FallbackCommits)
	fmt.Printf("%-22s %14d %14d\n", "capacity aborts",
		base.TotalAborts(), hinted.TotalAborts())
	fmt.Printf("%-22s %14s %14.1f\n", "TX footprint (blocks)", "-", hinted.TxFootprints.Mean())
	fmt.Printf("\nspeedup from safety hints: %.2fx\n",
		float64(base.Cycles)/float64(hinted.Cycles))
	// Output:
	// static classification: tx loads: 1 (1 safe)  tx stores: 2 (1 safe)  clones: 0
	//
	//                           baseline P8  P8 + HinTM-st
	// cycles                         163522          24329
	// HTM commits                         0             64
	// fallback (serialized)              64              0
	// capacity aborts                   260              0
	// TX footprint (blocks)               -            1.0
	//
	// speedup from safety hints: 6.72x
}
