package sim

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"hintm/internal/ir"
)

// The tests in this file pin Machine.Release and the cache tag pools it
// feeds: a machine built after another's Release runs on recycled tag
// backings that still hold the previous run's tags, and must behave exactly
// like one built on fresh backings. Their names are kept from the snapshot
// forks they once compared with cold runs; a forked machine's caches drew
// from the same pools.

// setupModule builds a workload with a substantial single-threaded warm-up:
// main initializes a words-long global array (touching memory, caches, TLB,
// page table), then forks workers that transactionally sum disjoint slices
// into out[tid].
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

// mainTxModule: main initializes a global array, runs one transaction of its
// own (no parallel region), then a non-transactional cooldown loop.
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

// drainTagPools empties the cache tag pools: sync.Pool drops its contents
// over two garbage collections, so the next machines get fresh backings.
func drainTagPools() {
	runtime.GC()
	runtime.GC()
}

// assertIdentical compares every statistic and the visible memory outcome.
func assertIdentical(t *testing.T, label string, cold, recycled *Machine, rc, rr *Result, outWords int64) {
	t.Helper()
	if !reflect.DeepEqual(rc, rr) {
		t.Errorf("%s: recycled result differs from cold:\n cold:     %v\n recycled: %v", label, rc, rr)
	}
	for w := int64(0); w < outWords; w++ {
		if c, r := cold.ReadGlobal("out", w), recycled.ReadGlobal("out", w); c != r {
			t.Errorf("%s: out[%d] = %d recycled vs %d cold", label, w, r, c)
		}
	}
}

// TestForkMatchesColdAcrossGrid: every HTM kind × hint mode cell run on a
// machine built right after another cell's machine was released matches the
// same cell run cold, on fresh backings.
func TestForkMatchesColdAcrossGrid(t *testing.T) {
	mod := classified(t, setupModule(4, 512))
	var cfgs []Config
	for _, k := range []HTMKind{HTMP8, HTMP8S, HTML1TM, HTMInfCap, HTMSTM} {
		for _, h := range []HintMode{HintNone, HintStatic, HintDynamic, HintFull} {
			cfg := DefaultConfig()
			cfg.HTM = k
			cfg.Hints = h
			cfgs = append(cfgs, cfg)
		}
	}

	// Cold pass: nothing is released, so every machine's backings are fresh.
	drainTagPools()
	colds := make([]*Machine, len(cfgs))
	results := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		colds[i], results[i] = runModule(t, mod, cfg)
	}
	// Recycled pass, in reverse, so each machine inherits the backings a
	// different cell left dirty.
	var prev *Machine
	for i := len(cfgs) - 1; i >= 0; i-- {
		if prev != nil {
			prev.Release()
		}
		m, res := runModule(t, mod, cfgs[i])
		assertIdentical(t, fmt.Sprintf("%s/%s", cfgs[i].HTM, cfgs[i].Hints), colds[i], m, results[i], res, 4)
		prev = m
	}
	prev.Release()
}

// TestForkMatchesColdMainThreadTx: a main-thread transaction followed by a
// cooldown loop, run on backings a parallel workload left dirty, matches the
// same run cold.
func TestForkMatchesColdMainThreadTx(t *testing.T) {
	mod := mainTxModule(256)
	cfg := DefaultConfig()
	drainTagPools()
	cold, rc := runModule(t, mod, cfg)
	if rc.Commits+rc.FallbackCommits == 0 {
		t.Fatalf("main-thread transaction did not commit: %v", rc)
	}
	dirty, _ := runModule(t, setupModule(4, 512), cfg)
	dirty.Release()
	recycled, rr := runModule(t, mod, cfg)
	assertIdentical(t, "main-tx", cold, recycled, rc, rr, 1)
	recycled.Release()
}

// TestConcurrentForksAreIndependent: machines built from one module and run
// side by side, each releasing its backings to the shared pools as it
// finishes, all match a serial run.
func TestConcurrentForksAreIndependent(t *testing.T) {
	mod := setupModule(4, 512)
	cfg := DefaultConfig()
	cfg.Hints = HintDynamic
	_, want := runModule(t, mod, cfg)

	const n = 8
	results := make([]*Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := New(cfg, mod)
			if err != nil {
				t.Errorf("New %d: %v", i, err)
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
			t.Errorf("machine %d diverged:\n want %v\n got  %v", i, want, res)
		}
	}
}

// TestSnapshotForkAllocsSteadyState pins the cost shape of building and
// releasing a machine: allocations per machine are a constant for a fixed
// module and configuration, and do NOT grow with the number of machines
// already built (no hidden accumulation in the tag pools).
func TestSnapshotForkAllocsSteadyState(t *testing.T) {
	mod := setupModule(4, 512)
	cfg := DefaultConfig()
	build := func() {
		m, err := New(cfg, mod)
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
	}
	for i := 0; i < 16; i++ {
		build() // warm tag pools
	}
	early := testing.AllocsPerRun(32, build)
	late := testing.AllocsPerRun(32, build)
	if late > early*1.1+8 {
		t.Errorf("machine allocations grew with machine count: early %.0f, late %.0f", early, late)
	}
	// Released backings are reused: a machine costs fewer bytes than its
	// L2 tag backing (8 B per line), which a build without recycling
	// allocates in full on top of the per-set recency and used words. The
	// race detector's sync.Pool drops Puts at random, so the bound holds
	// only in non-race builds.
	if raceEnabled {
		return
	}
	var before, after runtime.MemStats
	const builds = 32
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	perBuild := (after.TotalAlloc - before.TotalAlloc) / builds
	if bound := uint64(cfg.Cache.L2Sets*cfg.Cache.L2Ways) * 8; perBuild > bound {
		t.Errorf("building a machine allocates %d bytes, want < %d: tag backings not recycled", perBuild, bound)
	}
}
