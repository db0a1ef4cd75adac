package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"hintm/internal/fault"
	"hintm/internal/htm"
	"hintm/internal/interp"
	"hintm/internal/ir"
	"hintm/internal/mem"
	"hintm/internal/obs"
)

// chromeRun executes a freshly-built module under cfg with a ChromeTracer
// attached and returns the rendered trace bytes.
func chromeRun(t *testing.T, build func() *ir.Module, cfg Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	ct := obs.NewChromeTracer(&buf)
	cfg.Tracer = ct
	m, err := New(cfg, build())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := m.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := ct.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if ct.Events() == 0 {
		t.Fatal("trace recorded no events")
	}
	return buf.Bytes()
}

func TestChromeTraceDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SampleCycles = 100
	build := func() *ir.Module { return counterModule(4, 30) }
	a := chromeRun(t, build, cfg)
	b := chromeRun(t, build, cfg)
	if !json.Valid(a) {
		t.Fatalf("trace is not valid JSON:\n%s", a)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed runs produced different traces")
	}
}

// The fault campaign draws from seeded PRNG streams, so even a run full of
// injected aborts must trace byte-identically.
func TestChromeTraceDeterministicUnderFaults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hints = HintFull
	cfg.SampleCycles = 500
	cfg.Faults = fault.Plan{SpuriousProb: 0.05}
	build := func() *ir.Module { return classified(t, bigTxModule(4, 5, 80)) }
	a := chromeRun(t, build, cfg)
	b := chromeRun(t, build, cfg)
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed fault-campaign runs produced different traces")
	}
	if !bytes.Contains(a, []byte(obs.EvFaultSpurious.String())) {
		t.Fatal("campaign vacuous: the trace holds no injected abort")
	}
	if !json.Valid(a) {
		t.Fatalf("trace is not valid JSON:\n%s", a)
	}
}

// Every capacity abort the run counts must appear in the autopsy with a full
// overflow attribution: the structure that overflowed and a non-empty
// offending-block ranking. Each bounded tracker names its own structure:
// P8's buffer, P8S's buffer write set (its reads spill into the signature),
// and under L1TM the L1 whose eviction lost a tracked line — here a TX
// tracking more blocks in one L1 set than the set has ways, on two contexts
// of one core.
func TestAutopsyAttributesEveryCapacityAbort(t *testing.T) {
	l1SetStride := int64(DefaultConfig().Cache.L1Sets) * 64
	for _, c := range []struct {
		htm           HTMKind
		smt           int
		mod           *ir.Module
		wantStructure string
	}{
		{HTMP8, 1, bigTxModule(2, 5, 100), "tx-buffer"},
		{HTMP8S, 1, strideTxModule(2, 3, 100, 64, true), "tx-buffer-writeset"},
		{HTML1TM, 2, strideTxModule(2, 3, 16, l1SetStride, false), "l1-eviction"},
	} {
		col := obs.NewCollector()
		cfg := DefaultConfig()
		cfg.HTM, cfg.SMT, cfg.Tracer = c.htm, c.smt, col
		cfg.SizeFor(2)
		_, res := runModule(t, c.mod, cfg)

		nCap := res.Aborts[htm.AbortCapacity]
		if nCap == 0 {
			t.Fatalf("%v: workload produced no capacity aborts; test is vacuous", c.htm)
		}
		a := col.Autopsy()
		if uint64(len(a.Capacity)) != nCap {
			t.Fatalf("%v: autopsy attributes %d capacity aborts, result counts %d",
				c.htm, len(a.Capacity), nCap)
		}
		for i, at := range a.Capacity {
			if at.Overflow == nil {
				t.Fatalf("%v: capacity abort %d has no overflow detail", c.htm, i)
			}
			if at.Overflow.Structure != c.wantStructure {
				t.Errorf("%v: capacity abort %d overflowed %q, want %q",
					c.htm, i, at.Overflow.Structure, c.wantStructure)
			}
			if len(at.Overflow.Top) == 0 {
				t.Errorf("%v: capacity abort %d has no offending blocks", c.htm, i)
			}
			if at.Overflow.Tracked == 0 {
				t.Errorf("%v: capacity abort %d tracked 0 blocks at overflow", c.htm, i)
			}
		}
		if len(a.TopBlocks) == 0 {
			t.Errorf("%v: aggregated top-blocks ranking is empty", c.htm)
		}
	}
}

// strideTxModule: each thread's TX reads (or writes) `blocks` words of a
// thread-private heap buffer, `stride` bytes apart. A stride of the L1's
// sets × 64 bytes puts every block in one L1 set.
func strideTxModule(nThreads, iters, blocks, stride int64, write bool) *ir.Module {
	b := ir.NewBuilder("stridetx")
	w := b.ThreadBody("worker", 1)
	buf := w.MallocI(blocks * stride)
	txLoop := w.NewBlock("txloop")
	touch := w.NewBlock("touch")
	touched := w.NewBlock("touched")
	txDone := w.NewBlock("txdone")
	i := w.C(0)
	iter := w.C(0)
	w.Br(txLoop)

	w.SetBlock(txLoop)
	w.TxBegin()
	w.MovTo(i, w.C(0))
	w.Br(touch)
	w.SetBlock(touch)
	addr := w.Add(buf, w.MulI(i, stride))
	if write {
		w.Store(addr, 0, i)
	} else {
		w.Load(addr, 0)
	}
	w.MovTo(i, w.AddI(i, 1))
	w.CondBr(w.Cmp(ir.CmpLT, i, w.C(blocks)), touch, touched)
	w.SetBlock(touched)
	w.TxEnd()
	w.MovTo(iter, w.AddI(iter, 1))
	w.CondBr(w.Cmp(ir.CmpLT, iter, w.C(iters)), txLoop, txDone)
	w.SetBlock(txDone)
	w.FreeI(buf, blocks*stride)
	w.RetVoid()

	mn := b.Function("main", 0)
	mn.Parallel(mn.C(nThreads), "worker")
	mn.RetVoid()
	return b.M
}

// The span stream must account for every transaction outcome the result
// counters report — nothing double-counted, nothing dropped.
func TestSpanAccountingMatchesResult(t *testing.T) {
	col := obs.NewCollector()
	cfg := DefaultConfig()
	cfg.Tracer = col
	cfg.SampleCycles = 200
	_, res := runModule(t, counterModule(8, 20), cfg)

	a := col.Autopsy()
	if uint64(a.Commits) != res.Commits {
		t.Errorf("span commits = %d, result commits = %d", a.Commits, res.Commits)
	}
	if uint64(a.FallbackCommits) != res.FallbackCommits {
		t.Errorf("span fallback commits = %d, result = %d", a.FallbackCommits, res.FallbackCommits)
	}
	if uint64(a.Aborts) != res.TotalAborts() {
		t.Errorf("span aborts = %d, result aborts = %d", a.Aborts, res.TotalAborts())
	}
	for _, r := range htm.AbortReasons {
		if uint64(a.AbortsByReason[r]) != res.Aborts[r] {
			t.Errorf("span aborts[%s] = %d, result = %d",
				r, a.AbortsByReason[r], res.Aborts[r])
		}
	}

	if len(col.Samples) == 0 {
		t.Fatal("sampling produced no counter samples")
	}
	prev := int64(-1)
	for _, s := range col.Samples {
		if s.Cycle <= prev {
			t.Fatalf("sample cycles not strictly increasing: %d after %d", s.Cycle, prev)
		}
		prev = s.Cycle
	}
	last := col.Samples[len(col.Samples)-1]
	if last.Commits > res.Commits || last.TotalAborts() > res.TotalAborts() {
		t.Errorf("final sample (%d commits, %d aborts) exceeds run totals (%d, %d)",
			last.Commits, last.TotalAborts(), res.Commits, res.TotalAborts())
	}
}

// benchMachine assembles a machine plus a bare thread without running it, so
// the access path can be exercised directly.
func benchMachine(tb testing.TB, cfg Config) (*Machine, *interp.Thread, mem.Addr) {
	tb.Helper()
	m, err := New(cfg, counterModule(1, 1))
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	m.prog.LayoutGlobals(m.alloc, m.memory)
	mainFn := m.prog.M.Func("main")
	mtid := m.mainTID()
	base := m.alloc.StackAlloc(mtid, mainFn.AllocaWords*mem.WordSize)
	th := m.prog.NewThread(mtid, "main", nil, base, cfg.Seed)
	m.byThread[mtid] = m.ctxs[0]
	return m, th, m.prog.GlobalAddr("ctr")
}

// With a nil tracer the steady-state access path must not allocate — tracing
// support is free when disabled.
func TestNilTracerAccessDoesNotAllocate(t *testing.T) {
	m, th, addr := benchMachine(t, DefaultConfig())
	// Warm up: fault the page in, fill the cache line.
	m.Load(th, addr, false)
	m.Store(th, addr, 1, false)
	if n := testing.AllocsPerRun(200, func() {
		m.Load(th, addr, false)
		m.Store(th, addr, 1, false)
	}); n != 0 {
		t.Errorf("non-tx access allocates %.1f times per op with nil tracer", n)
	}

	if ctrl := m.TxBegin(th); ctrl != interp.CtrlOK {
		t.Fatalf("TxBegin = %v", ctrl)
	}
	m.Load(th, addr, false) // warm up the tracker entry
	if n := testing.AllocsPerRun(200, func() {
		m.Load(th, addr, false)
	}); n != 0 {
		t.Errorf("in-tx read allocates %.1f times per op with nil tracer", n)
	}
	if ctrl := m.TxEnd(th); ctrl != interp.CtrlOK {
		t.Fatalf("TxEnd = %v", ctrl)
	}
}

func BenchmarkNilTracerAccess(b *testing.B) {
	m, th, addr := benchMachine(b, DefaultConfig())
	m.Load(th, addr, false)
	m.Store(th, addr, 1, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Load(th, addr, false)
		m.Store(th, addr, 1, false)
	}
}

// With a tracer attached the same run must still succeed and emit spans; the
// comparison benchmark documents the (bounded) cost of tracing.
func BenchmarkCollectorTracedRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		col := obs.NewCollector()
		cfg := DefaultConfig()
		cfg.Tracer = col
		m, err := New(cfg, counterModule(4, 10))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		if len(col.Attempts) == 0 {
			b.Fatal("no spans collected")
		}
	}
}
