package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"hintm/internal/ir"
	"hintm/internal/obs"
)

// setupModule builds a workload with a substantial single-threaded warm-up:
// main initializes a words-long global array (touching memory, caches, TLB,
// page table), then forks workers that transactionally sum disjoint slices
// into out[tid]. The warm-up is the shareable prefix; the parallel region is
// the per-configuration suffix.
func setupModule(nThreads, words int64) *ir.Module {
	b := ir.NewBuilder("setup")
	b.Global("data", words*8)
	b.Global("out", 8*nThreads)

	w := b.ThreadBody("worker", 1)
	per := words / nThreads
	start := w.MulI(w.Param(0), per)
	end := w.AddI(start, per)
	loop := w.NewBlock("loop")
	done := w.NewBlock("done")
	i := w.Mov(start)
	acc := w.C(0)
	w.Br(loop)
	w.SetBlock(loop)
	w.TxBegin()
	g := w.GlobalAddr("data")
	v := w.Load(w.Add(g, w.MulI(i, 8)), 0)
	w.MovTo(acc, w.Add(acc, v))
	o := w.GlobalAddr("out")
	w.Store(w.Add(o, w.MulI(w.Param(0), 8)), 0, acc)
	w.TxEnd()
	w.MovTo(i, w.AddI(i, 1))
	c := w.Cmp(ir.CmpLT, i, end)
	w.CondBr(c, loop, done)
	w.SetBlock(done)
	w.RetVoid()

	mn := b.Function("main", 0)
	iLoop := mn.NewBlock("init")
	iDone := mn.NewBlock("initdone")
	j := mn.C(0)
	mn.Br(iLoop)
	mn.SetBlock(iLoop)
	g2 := mn.GlobalAddr("data")
	mn.Store(mn.Add(g2, mn.MulI(j, 8)), 0, j)
	mn.MovTo(j, mn.AddI(j, 1))
	c2 := mn.Cmp(ir.CmpLT, j, mn.C(words))
	mn.CondBr(c2, iLoop, iDone)
	mn.SetBlock(iDone)
	n := mn.C(nThreads)
	mn.Parallel(n, "worker")
	mn.RetVoid()
	return b.M
}

// mainTxModule: the warm-up ends at a main-thread transaction (no parallel
// region), followed by a non-transactional cooldown loop — exercises the
// OpTxBegin boundary and gives the alloc pin a steady-state region to step.
func mainTxModule(words int64) *ir.Module {
	b := ir.NewBuilder("maintx")
	b.Global("data", words*8)
	b.Global("out", 8)

	mn := b.Function("main", 0)
	iLoop := mn.NewBlock("init")
	iDone := mn.NewBlock("initdone")
	cLoop := mn.NewBlock("cool")
	cDone := mn.NewBlock("cooldone")
	j := mn.C(0)
	mn.Br(iLoop)
	mn.SetBlock(iLoop)
	g := mn.GlobalAddr("data")
	mn.Store(mn.Add(g, mn.MulI(j, 8)), 0, j)
	mn.MovTo(j, mn.AddI(j, 1))
	c := mn.Cmp(ir.CmpLT, j, mn.C(words))
	mn.CondBr(c, iLoop, iDone)
	mn.SetBlock(iDone)
	mn.TxBegin()
	v := mn.Load(mn.GlobalAddr("data"), 0)
	mn.Store(mn.GlobalAddr("out"), 0, mn.AddI(v, 1))
	mn.TxEnd()
	mn.MovTo(j, mn.C(0))
	mn.Br(cLoop)
	mn.SetBlock(cLoop)
	g3 := mn.GlobalAddr("data")
	v2 := mn.Load(mn.Add(g3, mn.MulI(j, 8)), 0)
	mn.Store(mn.GlobalAddr("out"), 0, v2)
	mn.MovTo(j, mn.AddI(j, 1))
	c3 := mn.Cmp(ir.CmpLT, j, mn.C(words))
	mn.CondBr(c3, cLoop, cDone)
	mn.SetBlock(cDone)
	mn.RetVoid()
	return b.M
}

// plainModule has no transactions and no parallel region: no prefix exists.
func plainModule() *ir.Module {
	b := ir.NewBuilder("plain")
	b.Global("x", 8)
	mn := b.Function("main", 0)
	mn.Store(mn.GlobalAddr("x"), 0, mn.C(42))
	mn.RetVoid()
	return b.M
}

// capturePrefixFor runs the canonical prefix of cfg over mod.
func capturePrefixFor(t *testing.T, mod *ir.Module, cfg Config) *Prefix {
	t.Helper()
	pm, err := New(PrefixConfig(cfg), mod)
	if err != nil {
		t.Fatalf("New(prefix): %v", err)
	}
	p, err := pm.RunToPrefix(context.Background())
	if err != nil {
		t.Fatalf("RunToPrefix: %v", err)
	}
	return p
}

// runForked forks cfg from p and runs it to completion.
func runForked(t *testing.T, p *Prefix, cfg Config) (*Machine, *Result) {
	t.Helper()
	m, err := p.Fork(cfg)
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	res, err := m.Run(context.Background())
	if err != nil {
		t.Fatalf("Run(forked): %v", err)
	}
	return m, res
}

// assertIdentical compares every statistic and the visible memory outcome.
func assertIdentical(t *testing.T, label string, mod *ir.Module, cold, forked *Machine, rc, rf *Result, outWords int64) {
	t.Helper()
	if !reflect.DeepEqual(rc, rf) {
		t.Errorf("%s: forked result differs from cold:\n cold:   %v\n forked: %v", label, rc, rf)
	}
	for w := int64(0); w < outWords; w++ {
		if c, f := cold.ReadGlobal("out", w), forked.ReadGlobal("out", w); c != f {
			t.Errorf("%s: out[%d] = %d forked vs %d cold", label, w, f, c)
		}
	}
}

func TestForkMatchesColdAcrossGrid(t *testing.T) {
	mod := classified(t, setupModule(4, 512))
	kinds := []HTMKind{HTMP8, HTMP8S, HTML1TM, HTMInfCap, HTMSTM}
	hints := []HintMode{HintNone, HintStatic, HintDynamic, HintFull}

	// One prefix per dynamic-hint bit serves the whole grid.
	prefixes := map[bool]*Prefix{}
	for _, dyn := range []bool{false, true} {
		cfg := DefaultConfig()
		if dyn {
			cfg.Hints = HintDynamic
		}
		prefixes[dyn] = capturePrefixFor(t, mod, cfg)
	}

	for _, k := range kinds {
		for _, h := range hints {
			label := fmt.Sprintf("%s/%s", k, h)
			cfg := DefaultConfig()
			cfg.HTM = k
			cfg.Hints = h
			cold, rc := runModule(t, mod, cfg)
			forked, rf := runForked(t, prefixes[h.Dynamic()], cfg)
			assertIdentical(t, label, mod, cold, forked, rc, rf, 4)
		}
	}
	if n := prefixes[false].Forks() + prefixes[true].Forks(); n != uint64(len(kinds)*len(hints)) {
		t.Errorf("fork count %d, want %d", n, len(kinds)*len(hints))
	}
}

func TestForkMatchesColdMainThreadTx(t *testing.T) {
	mod := mainTxModule(256)
	cfg := DefaultConfig()
	p := capturePrefixFor(t, mod, cfg)
	if p.Steps == 0 || p.Cycles == 0 {
		t.Fatalf("empty prefix: steps=%d cycles=%d", p.Steps, p.Cycles)
	}
	cold, rc := runModule(t, mod, cfg)
	forked, rf := runForked(t, p, cfg)
	assertIdentical(t, "main-tx", mod, cold, forked, rc, rf, 1)
}

func TestConcurrentForksAreIndependent(t *testing.T) {
	mod := setupModule(4, 512)
	cfg := DefaultConfig()
	cfg.Hints = HintDynamic
	p := capturePrefixFor(t, mod, cfg)
	_, want := runModule(t, mod, cfg)

	const n = 8
	results := make([]*Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := p.Fork(cfg)
			if err != nil {
				t.Errorf("Fork %d: %v", i, err)
				return
			}
			res, err := m.Run(context.Background())
			if err != nil {
				t.Errorf("Run %d: %v", i, err)
				return
			}
			m.Release()
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res == nil {
			continue
		}
		if !reflect.DeepEqual(want, res) {
			t.Errorf("fork %d diverged:\n want %v\n got  %v", i, want, res)
		}
	}
}

func TestNoPrefixWithoutTransactionalWork(t *testing.T) {
	pm, err := New(DefaultConfig(), plainModule())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pm.RunToPrefix(context.Background()); !errors.Is(err, ErrNoPrefix) {
		t.Fatalf("err = %v, want ErrNoPrefix", err)
	}
}

func TestNoPrefixWhenInstrumented(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tracer = obs.NewCollector()
	pm, err := New(cfg, setupModule(2, 64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pm.RunToPrefix(context.Background()); !errors.Is(err, ErrNoPrefix) {
		t.Fatalf("traced capture err = %v, want ErrNoPrefix", err)
	}
}

func TestPrefixCompatibleRejectsMismatches(t *testing.T) {
	base := PrefixConfig(DefaultConfig())
	cases := map[string]func(*Config){
		"seed":     func(c *Config) { c.Seed = 99 },
		"cores":    func(c *Config) { c.Cores = 4; c.Cache.Cores = 4 },
		"smt":      func(c *Config) { c.SMT = 2 },
		"cache":    func(c *Config) { c.Cache.L1Sets *= 2 },
		"tlb":      func(c *Config) { c.TLBEntries *= 2 },
		"dyn-bit":  func(c *Config) { c.Hints = HintDynamic },
		"tracer":   func(c *Config) { c.Tracer = obs.NewCollector() },
		"watchdog": func(c *Config) { c.WatchdogCycles = 1 << 20 },
	}
	for name, mutate := range cases {
		run := DefaultConfig()
		mutate(&run)
		if err := PrefixCompatible(base, run); err == nil {
			t.Errorf("%s: mismatch accepted", name)
		} else if !errors.Is(err, ErrNoPrefix) {
			t.Errorf("%s: err = %v, want ErrNoPrefix", name, err)
		}
	}
	// And the compatible case passes, including masked-parameter drift.
	run := DefaultConfig()
	run.HTM = HTML1TM
	run.Hints = HintStatic
	run.BackoffBase = 1
	run.P8Entries = 8
	if err := PrefixCompatible(base, run); err != nil {
		t.Errorf("compatible config rejected: %v", err)
	}
}

// TestSnapshotForkAllocsSteadyState pins the fork cost shape: allocations
// per fork are O(live state) — a constant for a fixed snapshot — and do NOT
// grow with the number of forks already taken (no hidden accumulation in the
// snapshot or pools).
func TestSnapshotForkAllocsSteadyState(t *testing.T) {
	mod := setupModule(4, 512)
	p := capturePrefixFor(t, mod, DefaultConfig())
	cfg := DefaultConfig()
	fork := func() {
		m, err := p.Fork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
	}
	for i := 0; i < 16; i++ {
		fork() // warm line pools
	}
	early := testing.AllocsPerRun(32, fork)
	late := testing.AllocsPerRun(32, fork)
	if late > early*1.1+8 {
		t.Errorf("fork allocations grew with fork count: early %.0f, late %.0f", early, late)
	}
	// The absolute count must stay proportional to live state (512 words of
	// data ≈ 8 pages + stacks/globals); a generous cap catches accidental
	// per-fork copies of dead structures.
	if early > 2000 {
		t.Errorf("fork allocates %.0f objects for a ~10-page snapshot", early)
	}
}

// TestResumedStepAllocsZero pins the resume path itself: once forked, the
// per-step execution path allocates nothing in steady state (identical to
// the cold machine's hot loop).
func TestResumedStepAllocsZero(t *testing.T) {
	mod := mainTxModule(256)
	p := capturePrefixFor(t, mod, DefaultConfig())
	m, err := p.Fork(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.stepCap = 1 << 30
	// Step through the boundary transaction into the cooldown loop (the
	// first TxBegin draws its checkpoint from the pool).
	for i := 0; i < 64 && !m.mainThread.Done; i++ {
		m.stepThread(m.ctxs[0], m.mainThread, 1)
	}
	if avg := testing.AllocsPerRun(100, func() {
		m.stepThread(m.ctxs[0], m.mainThread, 1)
	}); avg != 0 {
		t.Errorf("resumed step allocates %.1f objects/step, want 0", avg)
	}
}

func BenchmarkSnapshotFork(b *testing.B) {
	mod := setupModule(8, 4096)
	pm, err := New(PrefixConfig(DefaultConfig()), mod)
	if err != nil {
		b.Fatal(err)
	}
	p, err := pm.RunToPrefix(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := p.Fork(cfg)
		if err != nil {
			b.Fatal(err)
		}
		m.Release()
	}
}

// BenchmarkPrefixResume compares a forked resume against a cold run of the
// same cell: the gap is the warm-up work sharing saves per sibling.
func BenchmarkPrefixResume(b *testing.B) {
	mod := setupModule(8, 4096)
	cfg := DefaultConfig()
	pm, err := New(PrefixConfig(cfg), mod)
	if err != nil {
		b.Fatal(err)
	}
	p, err := pm.RunToPrefix(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("forked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := p.Fork(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
			m.Release()
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := New(cfg, mod)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
			m.Release()
		}
	})
}
