package sim

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"hintm/internal/classify"
	"hintm/internal/htm"
	"hintm/internal/ir"
	"hintm/internal/mem"
)

// counterModule: nThreads threads each perform iters transactions
// incrementing a shared counter. Total must be nThreads*iters.
func counterModule(nThreads, iters int64) *ir.Module {
	b := ir.NewBuilder("counter")
	b.Global("ctr", 1)

	w := b.ThreadBody("worker", 1)
	loop := w.NewBlock("loop")
	done := w.NewBlock("done")
	i := w.C(0)
	w.Br(loop)
	w.SetBlock(loop)
	w.TxBegin()
	g := w.GlobalAddr("ctr")
	v := w.Load(g, 0)
	w.Store(g, 0, w.AddI(v, 1))
	w.TxEnd()
	w.MovTo(i, w.AddI(i, 1))
	c := w.Cmp(ir.CmpLT, i, w.C(iters))
	w.CondBr(c, loop, done)
	w.SetBlock(done)
	w.RetVoid()

	mn := b.Function("main", 0)
	n := mn.C(nThreads)
	mn.Parallel(n, "worker")
	mn.RetVoid()
	return b.M
}

// bigTxModule: each thread's TX reads `blocks` distinct cache blocks of a
// thread-private heap buffer, then updates one shared word.
func bigTxModule(nThreads, iters, blocks int64) *ir.Module {
	b := ir.NewBuilder("bigtx")
	b.Global("out", 8)

	w := b.ThreadBody("worker", 1)
	buf := w.MallocI(blocks * 64) // one word per block touched, 64B apart
	// Initialize the buffer (outside TX).
	initLoop := w.NewBlock("init")
	txLoop := w.NewBlock("txloop")
	readLoop := w.NewBlock("read")
	readDone := w.NewBlock("readdone")
	txDone := w.NewBlock("txdone")
	i := w.C(0)
	iter := w.C(0)
	acc := w.C(0)
	w.Br(initLoop)
	w.SetBlock(initLoop)
	off := w.MulI(i, 64)
	w.Store(w.Add(buf, off), 0, i)
	w.MovTo(i, w.AddI(i, 1))
	c := w.Cmp(ir.CmpLT, i, w.C(blocks))
	w.CondBr(c, initLoop, txLoop)

	w.SetBlock(txLoop)
	w.TxBegin()
	w.MovTo(i, w.C(0))
	w.MovTo(acc, w.C(0))
	w.Br(readLoop)
	w.SetBlock(readLoop)
	off2 := w.MulI(i, 64)
	v := w.Load(w.Add(buf, off2), 0)
	w.MovTo(acc, w.Add(acc, v))
	w.MovTo(i, w.AddI(i, 1))
	c2 := w.Cmp(ir.CmpLT, i, w.C(blocks))
	w.CondBr(c2, readLoop, readDone)
	w.SetBlock(readDone)
	g := w.GlobalAddr("out")
	slot := w.MulI(w.Param(0), 8)
	w.Store(w.Add(g, slot), 0, acc)
	w.TxEnd()
	w.MovTo(iter, w.AddI(iter, 1))
	c3 := w.Cmp(ir.CmpLT, iter, w.C(iters))
	w.CondBr(c3, txLoop, txDone)
	w.SetBlock(txDone)
	w.FreeI(buf, blocks*64)
	w.RetVoid()

	mn := b.Function("main", 0)
	n := mn.C(nThreads)
	mn.Parallel(n, "worker")
	mn.RetVoid()
	return b.M
}

func runModule(t *testing.T, mod *ir.Module, cfg Config) (*Machine, *Result) {
	t.Helper()
	m, err := New(cfg, mod)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := m.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m, res
}

func classified(t *testing.T, mod *ir.Module) *ir.Module {
	t.Helper()
	if _, err := classify.Run(mod); err != nil {
		t.Fatalf("classify: %v", err)
	}
	return mod
}

func TestCounterCorrectUnderContention(t *testing.T) {
	mod := counterModule(8, 20)
	m, res := runModule(t, mod, DefaultConfig())
	got := m.memory.ReadWord(m.prog.GlobalAddr("ctr"))
	if got != 160 {
		t.Fatalf("counter = %d, want 160 (%v)", got, res)
	}
	if res.Commits+res.FallbackCommits != 160 {
		t.Fatalf("commits %d + fallback %d != 160", res.Commits, res.FallbackCommits)
	}
	if res.Aborts[htm.AbortConflict] == 0 {
		t.Log("warning: contended counter saw no conflicts (suspicious but legal)")
	}
	if res.Aborts[htm.AbortCapacity] != 0 {
		t.Fatalf("tiny TXs must not capacity-abort: %v", res)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	_, r1 := runModule(t, counterModule(8, 10), cfg)
	_, r2 := runModule(t, counterModule(8, 10), cfg)
	if r1.Cycles != r2.Cycles || r1.TotalAborts() != r2.TotalAborts() ||
		r1.Steps != r2.Steps {
		t.Fatalf("nondeterministic: %v vs %v", r1, r2)
	}
}

func TestCapacityAbortAndFallback(t *testing.T) {
	// 100 blocks > 64-entry P8 buffer: every TX capacity-aborts once, then
	// completes under the fallback lock.
	mod := bigTxModule(2, 3, 100)
	m, res := runModule(t, mod, DefaultConfig())
	if res.Aborts[htm.AbortCapacity] == 0 {
		t.Fatalf("expected capacity aborts: %v", res)
	}
	if res.FallbackCommits == 0 {
		t.Fatalf("capacity aborts must fall back: %v", res)
	}
	// Correctness: out[tid] = sum 0..99.
	base := m.prog.GlobalAddr("out")
	want := int64(99 * 100 / 2)
	for tid := int64(0); tid < 2; tid++ {
		if got := m.memory.ReadWord(base + mem.Addr(tid*8)); got != want {
			t.Fatalf("out[%d] = %d, want %d", tid, got, want)
		}
	}
}

// overflowMainTxModule: main runs one transaction storing i to word 0 of
// each of `blocks` distinct cache blocks, with a two-worker counter region
// before or after it.
func overflowMainTxModule(blocks int64, parallelFirst bool) *ir.Module {
	b := ir.NewBuilder("maintx")
	b.Global("buf", blocks*8)
	b.Global("ctr", 1)

	w := b.ThreadBody("worker", 1)
	w.TxBegin()
	g := w.GlobalAddr("ctr")
	w.Store(g, 0, w.AddI(w.Load(g, 0), 1))
	w.TxEnd()
	w.RetVoid()

	mn := b.Function("main", 0)
	loop := mn.NewBlock("loop")
	done := mn.NewBlock("done")
	if parallelFirst {
		mn.Parallel(mn.C(2), "worker")
	}
	i := mn.C(0)
	buf := mn.GlobalAddr("buf")
	mn.TxBegin()
	mn.Br(loop)
	mn.SetBlock(loop)
	mn.Store(mn.Add(buf, mn.MulI(i, 64)), 0, i)
	mn.MovTo(i, mn.AddI(i, 1))
	mn.CondBr(mn.Cmp(ir.CmpLT, i, mn.C(blocks)), loop, done)
	mn.SetBlock(done)
	mn.TxEnd()
	if !parallelFirst {
		mn.Parallel(mn.C(2), "worker")
	}
	mn.RetVoid()
	return b.M
}

// TestMainThreadTxCapacityAborts: a transaction of main that overflows the
// 64-entry P8 buffer aborts like any worker's and then commits under the
// fallback lock, whether it runs before the first parallel region or after
// one, and with or without run-ahead.
func TestMainThreadTxCapacityAborts(t *testing.T) {
	const blocks = 200
	for _, parallelFirst := range []bool{false, true} {
		var results [2][]byte
		for i, runAhead := range []bool{true, false} {
			m, err := New(DefaultConfig(), overflowMainTxModule(blocks, parallelFirst))
			if err != nil {
				t.Fatal(err)
			}
			if !runAhead {
				DisableRunAhead(m)
			}
			res, err := m.Run(context.Background())
			if err != nil {
				t.Fatalf("parallelFirst=%v runAhead=%v: %v", parallelFirst, runAhead, err)
			}
			if res.Aborts[htm.AbortCapacity] == 0 || res.FallbackCommits != 1 {
				t.Errorf("parallelFirst=%v runAhead=%v: want a capacity abort, then one fallback commit: %v",
					parallelFirst, runAhead, res)
			}
			base := m.prog.GlobalAddr("buf")
			for b := int64(0); b < blocks; b++ {
				if got := m.memory.ReadWord(base + mem.Addr(b*64)); got != b {
					t.Fatalf("parallelFirst=%v: buf block %d = %d, want %d", parallelFirst, b, got, b)
				}
			}
			if got := m.memory.ReadWord(m.prog.GlobalAddr("ctr")); got != 2 {
				t.Errorf("parallelFirst=%v: ctr = %d, want 2", parallelFirst, got)
			}
			if results[i], err = json.Marshal(res); err != nil {
				t.Fatal(err)
			}
		}
		if string(results[0]) != string(results[1]) {
			t.Errorf("parallelFirst=%v: run-ahead changes the result:\n on:  %s\n off: %s",
				parallelFirst, results[0], results[1])
		}
	}
}

func TestInfCapEliminatesCapacityAborts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HTM = HTMInfCap
	_, res := runModule(t, bigTxModule(2, 3, 100), cfg)
	if res.Aborts[htm.AbortCapacity] != 0 {
		t.Fatalf("InfCap capacity aborts: %v", res)
	}
	if res.FallbackCommits != 0 {
		t.Fatalf("InfCap should not fall back: %v", res)
	}
}

func TestDynamicHintsEliminateCapacityAborts(t *testing.T) {
	// The big reads target thread-private pages: HinTM-dyn marks them safe
	// and the TX fits trivially.
	cfg := DefaultConfig()
	cfg.Hints = HintDynamic
	m, res := runModule(t, bigTxModule(2, 3, 100), cfg)
	if res.Aborts[htm.AbortCapacity] != 0 {
		t.Fatalf("HinTM-dyn left capacity aborts: %v", res)
	}
	if res.DynSafeAccesses == 0 {
		t.Fatalf("no dynamically safe accesses recorded: %v", res)
	}
	base := m.prog.GlobalAddr("out")
	want := int64(99 * 100 / 2)
	if got := m.memory.ReadWord(base); got != want {
		t.Fatalf("out[0] = %d, want %d", got, want)
	}
}

func TestStaticHintsEliminateCapacityAborts(t *testing.T) {
	mod := classified(t, bigTxModule(2, 3, 100))
	cfg := DefaultConfig()
	cfg.Hints = HintStatic
	_, res := runModule(t, mod, cfg)
	if res.StaticSafeAccesses == 0 {
		t.Fatalf("classifier marked nothing: %v", res)
	}
	if res.Aborts[htm.AbortCapacity] != 0 {
		t.Fatalf("HinTM-st left capacity aborts: %v", res)
	}
}

func TestBaselineIgnoresSafeBits(t *testing.T) {
	// Same classified module, hints off: capacity aborts must persist.
	mod := classified(t, bigTxModule(2, 3, 100))
	cfg := DefaultConfig()
	cfg.Hints = HintNone
	_, res := runModule(t, mod, cfg)
	if res.Aborts[htm.AbortCapacity] == 0 {
		t.Fatalf("baseline unexpectedly avoided capacity aborts: %v", res)
	}
	if res.StaticSafeAccesses != 0 {
		t.Fatalf("baseline counted static-safe accesses: %v", res)
	}
}

func TestTxFootprintShrinksWithHints(t *testing.T) {
	cfgBase := DefaultConfig()
	cfgBase.HTM = HTMInfCap
	_, rBase := runModule(t, bigTxModule(2, 3, 100), cfgBase)

	cfgDyn := cfgBase
	cfgDyn.Hints = HintDynamic
	_, rDyn := runModule(t, bigTxModule(2, 3, 100), cfgDyn)

	if rBase.TxFootprints.Mean() <= rDyn.TxFootprints.Mean() {
		t.Fatalf("hints did not shrink footprints: base %.1f vs dyn %.1f",
			rBase.TxFootprints.Mean(), rDyn.TxFootprints.Mean())
	}
	if rBase.TxFootprints.Max() < 100 {
		t.Fatalf("baseline footprint max %d, want >= 100", rBase.TxFootprints.Max())
	}
}

// pageModeModule: thread 0 transactionally reads a shared page repeatedly;
// thread 1 eventually writes it, forcing a safe→unsafe transition.
func pageModeModule() *ir.Module {
	b := ir.NewBuilder("pagemode")
	b.GlobalPageAligned("shared", 512) // one full page
	b.Global("sink", 8)

	w := b.ThreadBody("worker", 1)
	isWriter := w.Cmp(ir.CmpEQ, w.Param(0), w.C(1))
	writer := w.NewBlock("writer")
	reader := w.NewBlock("reader")
	rLoop := w.NewBlock("rloop")
	rEnd := w.NewBlock("rend")
	w.CondBr(isWriter, writer, reader)

	// Reader: many TXs each reading a few words of the shared page.
	w.SetBlock(reader)
	i := w.C(0)
	w.Br(rLoop)
	w.SetBlock(rLoop)
	w.TxBegin()
	g := w.GlobalAddr("shared")
	v1 := w.Load(g, 0)
	v2 := w.Load(g, 64)
	s := w.GlobalAddr("sink")
	w.Store(s, 0, w.Add(v1, v2))
	w.TxEnd()
	w.MovTo(i, w.AddI(i, 1))
	c := w.Cmp(ir.CmpLT, i, w.C(200))
	w.CondBr(c, rLoop, rEnd)
	w.SetBlock(rEnd)
	w.RetVoid()

	// Writer: spin a while (reads of own scratch), then write shared page.
	w.SetBlock(writer)
	scratch := w.Alloca(8)
	j := w.C(0)
	spin := w.NewBlock("spin")
	wr := w.NewBlock("wr")
	w.Br(spin)
	w.SetBlock(spin)
	w.Store(scratch, 0, j)
	w.MovTo(j, w.AddI(j, 1))
	c2 := w.Cmp(ir.CmpLT, j, w.C(500))
	w.CondBr(c2, spin, wr)
	w.SetBlock(wr)
	w.TxBegin()
	g2 := w.GlobalAddr("shared")
	w.Store(g2, 128, w.C(7))
	w.TxEnd()
	w.RetVoid()

	mn := b.Function("main", 0)
	n := mn.C(2)
	mn.Parallel(n, "worker")
	mn.RetVoid()
	return b.M
}

func TestPageModeTransitionAborts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hints = HintDynamic
	_, res := runModule(t, pageModeModule(), cfg)
	if res.VM.Transitions == 0 {
		t.Fatalf("no page transitions: %v", res)
	}
	if res.PageModeCycles == 0 {
		t.Fatalf("no page-mode cycles charged: %v", res)
	}
	// A page-mode abort only occurs if a reader TX was live at transition
	// time; with 200 reader TXs that is overwhelmingly likely.
	if res.Aborts[htm.AbortPageMode] == 0 {
		t.Logf("note: no page-mode abort observed (timing): %v", res)
	}
}

func TestBaselineHasNoPageModeMachinery(t *testing.T) {
	_, res := runModule(t, pageModeModule(), DefaultConfig())
	if res.VM.Transitions != 0 || res.PageModeCycles != 0 ||
		res.Aborts[htm.AbortPageMode] != 0 {
		t.Fatalf("baseline ran dynamic classification: %v", res)
	}
}

func TestL1TMCapacityViaSetConflicts(t *testing.T) {
	// 100 sequential blocks fit easily in a 512-block L1, so use a tiny L1
	// to force set-conflict evictions of tracked lines.
	cfg := DefaultConfig()
	cfg.HTM = HTML1TM
	cfg.Cache.L1Sets, cfg.Cache.L1Ways = 4, 2 // 8-block L1
	_, res := runModule(t, bigTxModule(1, 2, 40), cfg)
	if res.Aborts[htm.AbortCapacity] == 0 {
		t.Fatalf("L1TM with tiny L1 must capacity-abort: %v", res)
	}
}

func TestL1TMLargerCapacityThanP8(t *testing.T) {
	// 100-block TX: overflows P8's 64 entries but fits the 512-block L1.
	cfgP8 := DefaultConfig()
	_, rP8 := runModule(t, bigTxModule(1, 2, 100), cfgP8)
	cfgL1 := DefaultConfig()
	cfgL1.HTM = HTML1TM
	_, rL1 := runModule(t, bigTxModule(1, 2, 100), cfgL1)
	if rP8.Aborts[htm.AbortCapacity] == 0 {
		t.Fatalf("P8 should overflow: %v", rP8)
	}
	if rL1.Aborts[htm.AbortCapacity] != 0 {
		t.Fatalf("L1TM should fit 100 blocks: %v", rL1)
	}
}

func TestP8SUnboundedReadset(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HTM = HTMP8S
	_, res := runModule(t, bigTxModule(2, 3, 100), cfg)
	if res.Aborts[htm.AbortCapacity] != 0 {
		t.Fatalf("P8S readset should not overflow: %v", res)
	}
}

func TestSpeedupFromHints(t *testing.T) {
	// The headline effect: dynamic hints must make the capacity-bound
	// workload faster than baseline P8.
	mod1 := bigTxModule(4, 4, 100)
	cfgBase := DefaultConfig()
	_, rBase := runModule(t, mod1, cfgBase)

	mod2 := bigTxModule(4, 4, 100)
	cfgDyn := DefaultConfig()
	cfgDyn.Hints = HintDynamic
	_, rDyn := runModule(t, mod2, cfgDyn)

	if rDyn.Cycles >= rBase.Cycles {
		t.Fatalf("no speedup: baseline %d cycles, HinTM-dyn %d", rBase.Cycles, rDyn.Cycles)
	}
}

func TestResultString(t *testing.T) {
	_, res := runModule(t, counterModule(4, 5), DefaultConfig())
	if res.String() == "" {
		t.Fatal("empty result string")
	}
	if res.TxAccesses() == 0 {
		t.Fatal("no transactional accesses counted")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 0
	if _, err := New(cfg, counterModule(1, 1)); err == nil {
		t.Fatal("invalid config accepted")
	}
	cfg = DefaultConfig()
	cfg.Cache.Cores = 4
	if _, err := New(cfg, counterModule(1, 1)); err == nil {
		t.Fatal("mismatched cache cores accepted")
	}
	// Cache sets are indexed by the block's low bits.
	for _, set := range []func(*Config){
		func(c *Config) { c.Cache.L1Sets = 48 },
		func(c *Config) { c.Cache.L2Sets = 48 },
	} {
		cfg = DefaultConfig()
		set(&cfg)
		if _, err := New(cfg, counterModule(1, 1)); err == nil || !strings.Contains(err.Error(), "power of two") {
			t.Errorf("48 cache sets: err = %v, want a power-of-two error", err)
		}
	}
	// A set's LRU recency word holds at most 16 ways; a zero-way cache
	// used to pass validation and panic on its first access.
	for _, c := range []struct {
		name string
		set  func(*Config)
	}{
		{"L1Ways=0", func(c *Config) { c.Cache.L1Ways = 0 }},
		{"L1Ways=17", func(c *Config) { c.Cache.L1Ways = 17 }},
		{"L2Ways=0", func(c *Config) { c.Cache.L2Ways = 0 }},
		{"L2Ways=-1", func(c *Config) { c.Cache.L2Ways = -1 }},
		{"L2Ways=17", func(c *Config) { c.Cache.L2Ways = 17 }},
	} {
		cfg = DefaultConfig()
		c.set(&cfg)
		if _, err := New(cfg, counterModule(1, 1)); err == nil || !strings.Contains(err.Error(), "ways is outside 1..16") {
			t.Errorf("%s: err = %v, want an associativity error", c.name, err)
		}
	}
	cfg = DefaultConfig()
	cfg.Cache.L1Ways, cfg.Cache.L2Ways = 1, 16
	if _, err := New(cfg, counterModule(1, 1)); err != nil {
		t.Errorf("1-way L1, 16-way L2 rejected: %v", err)
	}
	// Each context allocates SigBits/64 signature words, so the size is
	// bounded; a zero-bit signature would divide by zero on its first
	// hash. Only validation runs: no signature is allocated.
	for bits, ok := range map[uint64]bool{0: false, 1: true, 64: true, 1024: true, MaxSigBits: true, MaxSigBits + 1: false, 100_000_000_000: false} {
		cfg = DefaultConfig()
		cfg.HTM, cfg.SigBits = HTMP8S, bits
		if err := cfg.validate(); (err == nil) != ok {
			t.Errorf("SigBits %d: err = %v, want accepted = %v", bits, err, ok)
		} else if !ok && !strings.Contains(err.Error(), "signature size") {
			t.Errorf("SigBits %d: err = %v, want a signature-size error", bits, err)
		}
	}
}

// TestNegativeCostsRejected: every cycle cost, cache latency and retry
// count must be non-negative, since a negative one moves a clock backwards;
// zero is a valid (free) cost.
func TestNegativeCostsRejected(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*Config, int64)
	}{
		{"VM.TLBMiss", func(c *Config, v int64) { c.VM.TLBMiss = v }},
		{"VM.MinorFault", func(c *Config, v int64) { c.VM.MinorFault = v }},
		{"VM.ShootdownInitiator", func(c *Config, v int64) { c.VM.ShootdownInitiator = v }},
		{"VM.ShootdownSlave", func(c *Config, v int64) { c.VM.ShootdownSlave = v }},
		{"L1 latency", func(c *Config, v int64) { c.Cache.L1Latency = v }},
		{"L2 latency", func(c *Config, v int64) { c.Cache.L2Latency = v }},
		{"memory latency", func(c *Config, v int64) { c.Cache.MemLatency = v }},
		{"TxBeginCost", func(c *Config, v int64) { c.TxBeginCost = v }},
		{"TxCommitCost", func(c *Config, v int64) { c.TxCommitCost = v }},
		{"STMReadBarrier", func(c *Config, v int64) { c.STMReadBarrier = v }},
		{"STMWriteBarrier", func(c *Config, v int64) { c.STMWriteBarrier = v }},
		{"AbortFixedCost", func(c *Config, v int64) { c.AbortFixedCost = v }},
		{"FallbackPollCost", func(c *Config, v int64) { c.FallbackPollCost = v }},
		{"BackoffBase", func(c *Config, v int64) { c.BackoffBase = v }},
		{"MaxConflictRetries", func(c *Config, v int64) { c.MaxConflictRetries = int(v) }},
		{"CapacityRetries", func(c *Config, v int64) { c.CapacityRetries = int(v) }},
	} {
		cfg := DefaultConfig()
		c.set(&cfg, -51)
		if _, err := New(cfg, counterModule(1, 1)); err == nil || !strings.Contains(err.Error(), "negative "+c.name+" -51") {
			t.Errorf("%s = -51: err = %v, want a negative-%s error", c.name, err, c.name)
		}
		cfg = DefaultConfig()
		c.set(&cfg, 0)
		if err := cfg.validate(); err != nil {
			t.Errorf("%s = 0 rejected: %v", c.name, err)
		}
	}
}

func TestHTMKindAndHintModeStrings(t *testing.T) {
	for _, k := range []HTMKind{HTMP8, HTMP8S, HTML1TM, HTMInfCap} {
		if k.String() == "" {
			t.Error("empty HTM name")
		}
	}
	for _, h := range []HintMode{HintNone, HintStatic, HintDynamic, HintFull} {
		if h.String() == "" {
			t.Error("empty hint name")
		}
	}
	if !HintFull.Static() || !HintFull.Dynamic() || HintNone.Static() {
		t.Error("hint mode predicates wrong")
	}
}
