package sim

import (
	"context"
	"testing"

	"hintm/internal/ir"
	"hintm/internal/mem"
)

// spinTxModule: nThreads workers each run iters transactions that read a
// shared counter, spin through a local loop of spin iterations and write the
// counter back. The spin loop is thread-local, so workers run ahead through
// it while a peer's write-back aborts them: the abort settle path.
func spinTxModule(nThreads, iters, spin int64) *ir.Module {
	b := ir.NewBuilder("spintx")
	b.Global("ctr", 1)

	w := b.ThreadBody("worker", 1)
	loop := w.NewBlock("loop")
	inner := w.NewBlock("inner")
	tail := w.NewBlock("tail")
	done := w.NewBlock("done")
	i := w.C(0)
	w.Br(loop)
	w.SetBlock(loop)
	w.TxBegin()
	g := w.GlobalAddr("ctr")
	v := w.Load(g, 0)
	k := w.C(0)
	w.Br(inner)
	w.SetBlock(inner)
	w.MovTo(k, w.AddI(k, 1))
	w.CondBr(w.Cmp(ir.CmpLT, k, w.C(spin)), inner, tail)
	w.SetBlock(tail)
	w.Store(g, 0, w.AddI(v, 1))
	w.TxEnd()
	w.MovTo(i, w.AddI(i, 1))
	w.CondBr(w.Cmp(ir.CmpLT, i, w.C(iters)), loop, done)
	w.SetBlock(done)
	w.RetVoid()

	mn := b.Function("main", 0)
	mn.Parallel(mn.C(nThreads), "worker")
	mn.RetVoid()
	return b.M
}

// lockSpinModule: worker 0 runs transactions that store to `blocks` distinct
// cache blocks of a global (overflowing P8's buffer, so every attempt falls back
// to the lock); worker 1 runs counter transactions around a spin-iteration
// local loop. Each lock acquisition aborts worker 1 mid-spin, rewinding its
// run-ahead to well below the clock worker 0 was batching against.
func lockSpinModule(iters, blocks, spin int64) *ir.Module {
	b := ir.NewBuilder("lockspin")
	b.Global("big", blocks*8)
	b.Global("ctr", 1)
	w := b.ThreadBody("worker", 1)
	big := w.NewBlock("big")
	bigLoop := w.NewBlock("bigloop")
	bigTail := w.NewBlock("bigtail")
	small := w.NewBlock("small")
	inner := w.NewBlock("inner")
	tail := w.NewBlock("tail")
	done := w.NewBlock("done")
	i := w.C(0)
	w.CondBr(w.Cmp(ir.CmpEQ, w.Param(0), w.C(0)), big, small)

	w.SetBlock(big)
	w.TxBegin()
	g := w.GlobalAddr("big")
	j := w.C(0)
	w.Br(bigLoop)
	w.SetBlock(bigLoop)
	w.Store(w.Add(g, w.MulI(j, mem.BlockSize)), 0, j)
	w.MovTo(j, w.AddI(j, 1))
	w.CondBr(w.Cmp(ir.CmpLT, j, w.C(blocks)), bigLoop, bigTail)
	w.SetBlock(bigTail)
	w.TxEnd()
	w.MovTo(i, w.AddI(i, 1))
	w.CondBr(w.Cmp(ir.CmpLT, i, w.C(iters)), big, done)

	w.SetBlock(small)
	w.TxBegin()
	c := w.GlobalAddr("ctr")
	v := w.Load(c, 0)
	k := w.C(0)
	w.Br(inner)
	w.SetBlock(inner)
	w.MovTo(k, w.AddI(k, 1))
	w.CondBr(w.Cmp(ir.CmpLT, k, w.C(spin)), inner, tail)
	w.SetBlock(tail)
	w.Store(c, 0, w.AddI(v, 1))
	w.TxEnd()
	w.MovTo(i, w.AddI(i, 1))
	w.CondBr(w.Cmp(ir.CmpLT, i, w.C(iters)), small, done)
	w.SetBlock(done)
	w.RetVoid()

	mn := b.Function("main", 0)
	mn.Parallel(mn.C(2), "worker")
	mn.RetVoid()
	return b.M
}

// TestRunAheadRewindLowersBound covers an abort that rewinds a run-ahead
// below the runner-up clock the acting context is batching against: the
// batch must stop there, or the lock holder's critical section would run
// past the aborted context's retry.
func TestRunAheadRewindLowersBound(t *testing.T) {
	for _, spin := range []int64{1000, 3000} {
		var res [2]*Result
		for i, off := range []bool{true, false} {
			m, err := New(DefaultConfig(), lockSpinModule(20, 100, spin))
			if err != nil {
				t.Fatal(err)
			}
			m.noRunAhead = off
			if res[i], err = m.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got := m.ReadGlobal("ctr", 0); got != 20 {
				t.Fatalf("spin %d, run-ahead off=%v: ctr = %d, want 20", spin, off, got)
			}
		}
		if res[0].String() != res[1].String() {
			t.Errorf("spin %d: run-ahead changed the result:\n off: %v\n on:  %v", spin, res[0], res[1])
		}
	}
}

// TestStepWorkersAllocsZero pins the scheduler's steady state with run-ahead
// on: picking, stepping, running ahead and settling aborted run-aheads
// allocate nothing.
func TestStepWorkersAllocsZero(t *testing.T) {
	m, err := New(DefaultConfig(), spinTxModule(8, 1<<30, 20))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.startMain(); err != nil {
		t.Fatal(err)
	}
	m.stepCap = 1 << 62
	m.runAhead = true
	for m.parallel == nil {
		m.stepThread(m.ctxs[0], m.mainThread, 1)
	}
	for i := 0; i < 64; i++ { // warm checkpoint and frame pools
		m.stepWorkers()
	}
	before := m.settles[0]
	if n := testing.AllocsPerRun(50, m.stepWorkers); n != 0 {
		t.Errorf("stepWorkers allocates %.1f objects per guard interval", n)
	}
	if m.settles[0] == before {
		t.Error("no abort settled a run-ahead during the pin")
	}
	if len(m.runnable) != 8 {
		t.Fatalf("%d workers runnable, want 8 — iteration bound too low", len(m.runnable))
	}
}

// mainLoopModule: main alone updates a global iters times, with runs of
// local arithmetic between the load and the store.
func mainLoopModule(iters int64) *ir.Module {
	b := ir.NewBuilder("mainloop")
	b.Global("ctr", 1)
	mn := b.Function("main", 0)
	loop := mn.NewBlock("loop")
	done := mn.NewBlock("done")
	i := mn.C(0)
	mn.Br(loop)
	mn.SetBlock(loop)
	g := mn.GlobalAddr("ctr")
	v := mn.Load(g, 0)
	mn.Store(g, 0, mn.AddI(mn.MulI(v, 3), 1))
	mn.MovTo(i, mn.AddI(i, 1))
	mn.CondBr(mn.Cmp(ir.CmpLT, i, mn.C(iters)), loop, done)
	mn.SetBlock(done)
	mn.RetVoid()
	return b.M
}

// TestMainBatchAllocsZero pins the main thread's batched stepping: a batch
// of main's instructions, committed at once as Run commits it, allocates
// nothing.
func TestMainBatchAllocsZero(t *testing.T) {
	m, err := New(DefaultConfig(), mainLoopModule(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.startMain(); err != nil {
		t.Fatal(err)
	}
	m.stepCap = 1 << 62
	m.runAhead = true
	batch := func() {
		m.stepThread(m.ctxs[0], m.mainThread, m.batch())
		m.ctxs[0].ahead = 0
	}
	for i := 0; i < 64; i++ { // warm: fault in the global's page
		batch()
	}
	before := m.res.Steps
	const runs = 100
	if n := testing.AllocsPerRun(runs, batch); n != 0 {
		t.Errorf("a main-thread batch allocates %.1f objects", n)
	}
	// AllocsPerRun adds one warm-up call; a Load or Store starts every
	// batch, and at least four local instructions follow each.
	if steps := m.res.Steps - before; steps < 5*(runs+1) {
		t.Errorf("%d batches ran only %d steps", runs+1, steps)
	}
	if m.mainThread.Done {
		t.Fatal("main finished during the pin — iteration bound too low")
	}
}

// TestMainBatchStepCapExact checks a main-thread batch is committed at
// once: a run whose last batch straddles MaxSteps fails there, as single
// stepping would, instead of slipping past the cap on uncommitted steps.
func TestMainBatchStepCapExact(t *testing.T) {
	run := func(maxSteps int64) (*Result, error) {
		cfg := DefaultConfig()
		cfg.MaxSteps = maxSteps
		m, err := New(cfg, mainLoopModule(1000))
		if err != nil {
			t.Fatal(err)
		}
		return m.Run(context.Background())
	}
	res, err := run(DefaultConfig().MaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(res.Steps); err != nil {
		t.Errorf("MaxSteps = own steps %d: %v", res.Steps, err)
	}
	if _, err := run(res.Steps - 1); err == nil {
		t.Errorf("MaxSteps = own steps - 1 completed")
	}
}
