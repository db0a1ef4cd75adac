package interp

import (
	"testing"

	"hintm/internal/ir"
	"hintm/internal/mem"
)

// Step executes one instruction of t against env: Exec with max 1. It
// returns true if the instruction completed (PC advanced or control
// transferred), false if the thread stalled or aborted-and-rolled-back (no
// forward progress). Stepping a Done thread is a no-op returning false.
func (p *Program) Step(env Env, t *Thread) bool {
	_, ok := p.Exec(env, t, 1)
	return ok
}

// plainEnv executes directly against memory with no transactional effects —
// the minimal Env for testing interpreter semantics.
type plainEnv struct {
	mem *mem.Memory
	al  *mem.Allocator
	// abortAtStore triggers one simulated abort+rollback on the nth store;
	// stallTx makes TxBegin stall.
	abortAtStore int
	stallTx      bool
	storeCount   int
	parallelDone bool
	spawned      []*Thread
	prog         *Program
}

func newPlainEnv(p *Program) *plainEnv {
	e := &plainEnv{mem: mem.NewMemory(), al: mem.NewAllocator(), abortAtStore: -1, prog: p}
	p.LayoutGlobals(e.al, e.mem)
	return e
}

func (e *plainEnv) Load(t *Thread, a mem.Addr, safe bool) (int64, Ctrl) {
	return e.mem.ReadWord(a), CtrlOK
}

func (e *plainEnv) Store(t *Thread, a mem.Addr, v int64, safe bool) Ctrl {
	e.storeCount++
	if e.storeCount == e.abortAtStore && t.checkpoint != nil {
		cp := t.Restore()
		e.al.StackRelease(t.ID, cp.StackTop)
		return CtrlAbort
	}
	e.mem.WriteWord(a, v)
	return CtrlOK
}

func (e *plainEnv) Malloc(t *Thread, size int64) mem.Addr { return e.al.Malloc(t.ID, size) }
func (e *plainEnv) Free(t *Thread, a mem.Addr, size int64) {
	e.al.Free(t.ID, a, size)
}
func (e *plainEnv) StackAlloc(t *Thread, words int64) mem.Addr {
	return e.al.StackAlloc(t.ID, words*mem.WordSize)
}
func (e *plainEnv) StackRelease(t *Thread, base mem.Addr) { e.al.StackRelease(t.ID, base) }

func (e *plainEnv) TxBegin(t *Thread) Ctrl {
	if e.stallTx {
		return CtrlStall
	}
	t.Capture(e.al.StackTop(t.ID))
	t.InTx = true
	return CtrlOK
}

func (e *plainEnv) TxEnd(t *Thread) Ctrl {
	t.InTx = false
	return CtrlOK
}

func (e *plainEnv) Parallel(t *Thread, n int64, fn string, args []int64) Ctrl {
	if e.parallelDone {
		return CtrlOK
	}
	for i := int64(0); i < n; i++ {
		th := e.prog.NewThread(int(i), fn, append([]int64{i}, args...),
			e.al.StackAlloc(int(i), e.prog.M.Func(fn).AllocaWords*mem.WordSize), 42)
		e.spawned = append(e.spawned, th)
	}
	// Run children to completion round-robin.
	for progress := true; progress; {
		progress = false
		for _, th := range e.spawned {
			if !th.Done && e.prog.Step(e, th) {
				progress = true
			}
		}
	}
	e.parallelDone = true
	return CtrlOK
}

func (e *plainEnv) AbortHint(t *Thread, cond int64) Ctrl { return CtrlOK }

func runMain(t *testing.T, b *ir.Builder) (*Program, *plainEnv) {
	t.Helper()
	p, err := NewProgram(b.M)
	if err != nil {
		t.Fatalf("NewProgram: %v", err)
	}
	env := newPlainEnv(p)
	mn := p.M.Func("main")
	th := p.NewThread(0, "main", nil,
		env.al.StackAlloc(0, mn.AllocaWords*mem.WordSize), 7)
	for i := 0; i < 1_000_000 && !th.Done; i++ {
		if !p.Step(env, th) && !th.Done {
			t.Fatalf("main stalled at %v", nextOp(th))
		}
	}
	if !th.Done {
		t.Fatal("main did not finish")
	}
	return p, env
}

func TestArithmeticAndGlobals(t *testing.T) {
	b := ir.NewBuilder("m")
	b.Global("out", 4)
	f := b.Function("main", 0)
	g := f.GlobalAddr("out")
	f.Store(g, 0, f.AddI(f.C(40), 2))
	f.Store(g, 8, f.Mul(f.C(6), f.C(7)))
	f.Store(g, 16, f.Bin(ir.BinShl, f.C(1), f.C(10)))
	x := f.Cmp(ir.CmpLT, f.C(3), f.C(5))
	f.Store(g, 24, x)
	f.RetVoid()

	p, env := runMain(t, b)
	base := p.GlobalAddr("out")
	for i, want := range []int64{42, 42, 1024, 1} {
		if got := env.mem.ReadWord(base + mem.Addr(i*8)); got != want {
			t.Errorf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestLoopSum(t *testing.T) {
	// sum 1..10 into a global.
	b := ir.NewBuilder("m")
	b.Global("sum", 1)
	f := b.Function("main", 0)
	loop := f.NewBlock("loop")
	done := f.NewBlock("done")
	i := f.C(1)
	acc := f.C(0)
	f.Br(loop)
	f.SetBlock(loop)
	f.MovTo(acc, f.Add(acc, i))
	f.MovTo(i, f.AddI(i, 1))
	c := f.Cmp(ir.CmpLE, i, f.C(10))
	f.CondBr(c, loop, done)
	f.SetBlock(done)
	g := f.GlobalAddr("sum")
	f.Store(g, 0, acc)
	f.RetVoid()

	p, env := runMain(t, b)
	if got := env.mem.ReadWord(p.GlobalAddr("sum")); got != 55 {
		t.Fatalf("sum = %d, want 55", got)
	}
}

func TestCallReturnAndAlloca(t *testing.T) {
	// square(x) stores x*x in an alloca, loads it back, returns it.
	b := ir.NewBuilder("m")
	b.Global("out", 1)
	sq := b.Function("square", 1)
	slot := sq.Alloca(1)
	sq.Store(slot, 0, sq.Mul(sq.Param(0), sq.Param(0)))
	sq.Ret(sq.Load(slot, 0))
	f := b.Function("main", 0)
	r := f.Call("square", f.C(9))
	g := f.GlobalAddr("out")
	f.Store(g, 0, r)
	f.RetVoid()

	p, env := runMain(t, b)
	if got := env.mem.ReadWord(p.GlobalAddr("out")); got != 81 {
		t.Fatalf("square(9) = %d", got)
	}
}

func TestRecursionFactorial(t *testing.T) {
	b := ir.NewBuilder("m")
	b.Global("out", 1)
	fac := b.Function("fac", 1)
	rec := fac.NewBlock("rec")
	base := fac.NewBlock("base")
	c := fac.Cmp(ir.CmpLE, fac.Param(0), fac.C(1))
	fac.CondBr(c, base, rec)
	fac.SetBlock(base)
	fac.Ret(fac.C(1))
	fac.SetBlock(rec)
	sub := fac.Call("fac", fac.Sub(fac.Param(0), fac.C(1)))
	fac.Ret(fac.Mul(fac.Param(0), sub))

	f := b.Function("main", 0)
	r := f.Call("fac", f.C(6))
	g := f.GlobalAddr("out")
	f.Store(g, 0, r)
	f.RetVoid()

	p, env := runMain(t, b)
	if got := env.mem.ReadWord(p.GlobalAddr("out")); got != 720 {
		t.Fatalf("6! = %d", got)
	}
}

func TestMallocFreeRoundTrip(t *testing.T) {
	b := ir.NewBuilder("m")
	b.Global("out", 1)
	f := b.Function("main", 0)
	buf := f.MallocI(64)
	f.Store(buf, 8, f.C(123))
	v := f.Load(buf, 8)
	g := f.GlobalAddr("out")
	f.Store(g, 0, v)
	f.FreeI(buf, 64)
	f.RetVoid()

	p, env := runMain(t, b)
	if got := env.mem.ReadWord(p.GlobalAddr("out")); got != 123 {
		t.Fatalf("heap round trip = %d", got)
	}
}

func TestGlobalInitValues(t *testing.T) {
	b := ir.NewBuilder("m")
	b.GlobalInit("tbl", 3, []int64{10, 20, 30})
	b.Global("out", 1)
	f := b.Function("main", 0)
	tp := f.GlobalAddr("tbl")
	sum := f.Add(f.Load(tp, 0), f.Add(f.Load(tp, 8), f.Load(tp, 16)))
	g := f.GlobalAddr("out")
	f.Store(g, 0, sum)
	f.RetVoid()

	p, env := runMain(t, b)
	if got := env.mem.ReadWord(p.GlobalAddr("out")); got != 60 {
		t.Fatalf("init sum = %d", got)
	}
}

func TestRandDeterministicAndBounded(t *testing.T) {
	b := ir.NewBuilder("m")
	b.Global("out", 8)
	f := b.Function("main", 0)
	g := f.GlobalAddr("out")
	for i := 0; i < 8; i++ {
		f.Store(g, int64(i*8), f.RandI(100))
	}
	f.RetVoid()

	p1, env1 := runMain(t, b)
	base := p1.GlobalAddr("out")
	var first [8]int64
	for i := range first {
		first[i] = env1.mem.ReadWord(base + mem.Addr(i*8))
		if first[i] < 0 || first[i] >= 100 {
			t.Fatalf("rand out of bounds: %d", first[i])
		}
	}
	// Re-run: same module state (Safe flags etc. unchanged) → same stream.
	_, env2 := runMain(t, b)
	for i := range first {
		if got := env2.mem.ReadWord(base + mem.Addr(i*8)); got != first[i] {
			t.Fatalf("rand not deterministic at %d: %d vs %d", i, got, first[i])
		}
	}
}

func TestParallelThreadsSeparateState(t *testing.T) {
	// Each thread writes tid into out[tid].
	b := ir.NewBuilder("m")
	b.Global("out", 8)
	w := b.ThreadBody("worker", 1)
	g := w.GlobalAddr("out")
	off := w.MulI(w.Param(0), 8)
	w.Store(w.Add(g, off), 0, w.Param(0))
	w.RetVoid()
	f := b.Function("main", 0)
	f.Parallel(f.C(8), "worker")
	f.RetVoid()

	p, env := runMain(t, b)
	base := p.GlobalAddr("out")
	for i := int64(0); i < 8; i++ {
		if got := env.mem.ReadWord(base + mem.Addr(i*8)); got != i {
			t.Fatalf("out[%d] = %d", i, got)
		}
	}
}

func TestCheckpointRollback(t *testing.T) {
	// TX stores 5 then 6; env aborts at the second store (after restore the
	// TX re-runs and both stores complete). Without correct rollback, the
	// register state would be corrupted.
	b := ir.NewBuilder("m")
	b.Global("a", 2)
	f := b.Function("main", 0)
	g := f.GlobalAddr("a")
	f.TxBegin()
	f.Store(g, 0, f.C(5))
	f.Store(g, 8, f.C(6))
	f.TxEnd()
	f.RetVoid()

	p, err := NewProgram(b.M)
	if err != nil {
		t.Fatal(err)
	}
	env := newPlainEnv(p)
	env.abortAtStore = 2
	mn := p.M.Func("main")
	th := p.NewThread(0, "main", nil, env.al.StackAlloc(0, mn.AllocaWords*8), 7)
	for i := 0; i < 10000 && !th.Done; i++ {
		p.Step(env, th)
	}
	if !th.Done {
		t.Fatal("main did not finish after abort/retry")
	}
	base := p.GlobalAddr("a")
	if env.mem.ReadWord(base) != 5 || env.mem.ReadWord(base+8) != 6 {
		t.Fatalf("values after retry: %d %d",
			env.mem.ReadWord(base), env.mem.ReadWord(base+8))
	}
	// The TX body ran twice: 2 stores first attempt (second aborted before
	// writing), 2 on retry => storeCount sees 4 attempts.
	if env.storeCount != 4 {
		t.Fatalf("storeCount = %d, want 4", env.storeCount)
	}
}

// TestGlobalOf checks that globals are laid out in declaration order
// without overlap.
func TestGlobalOf(t *testing.T) {
	b := ir.NewBuilder("m")
	b.Global("g1", 2)
	b.Global("g2", 2)
	f := b.Function("main", 0)
	f.RetVoid()
	p, _ := runMain(t, b)
	if g1, g2 := p.GlobalAddr("g1"), p.GlobalAddr("g2"); g2 < g1+2*mem.WordSize {
		t.Fatalf("g2 at %v overlaps the 2 words of g1 at %v", g2, g1)
	}
}

func TestStepDoneThreadNoop(t *testing.T) {
	b := ir.NewBuilder("m")
	f := b.Function("main", 0)
	f.RetVoid()
	p, err := NewProgram(b.M)
	if err != nil {
		t.Fatal(err)
	}
	env := newPlainEnv(p)
	th := p.NewThread(0, "main", nil, 0, 1)
	for !th.Done {
		p.Step(env, th)
	}
	if p.Step(env, th) {
		t.Fatal("stepping a done thread must be a no-op")
	}
}

// nextOp returns the opcode t executes at its next Exec.
func nextOp(t *Thread) ir.Op {
	f := t.Frames[len(t.Frames)-1]
	return f.code[f.PC].op
}

// Exec executes its first instruction whatever the op, then exactly the
// thread-local instructions up to the next shared one, call boundaries
// included; it honours max, ends on the final Ret, and leaves the PC alone
// when the first instruction stalls or aborts.
func TestExecStopsAtSharedOps(t *testing.T) {
	b := ir.NewBuilder("m")
	b.Global("out", 1)
	sq := b.Function("sq", 1)
	sq.Ret(sq.Mul(sq.Param(0), sq.Param(0)))
	f := b.Function("main", 0)
	g := f.GlobalAddr("out")
	x := f.Call("sq", f.AddI(f.Rand(f.C(10)), 1))
	f.Store(g, 0, x)
	f.AddI(f.AddI(x, 1), 2)
	f.TxBegin()
	f.Store(g, 0, f.AddI(f.Load(g, 0), 1))
	f.TxEnd()
	f.RetVoid()

	p, err := NewProgram(b.M)
	if err != nil {
		t.Fatal(err)
	}
	env := newPlainEnv(p)
	mn := p.M.Func("main")
	th := p.NewThread(0, "main", nil, env.al.StackAlloc(0, mn.AllocaWords*mem.WordSize), 7)

	// at[op] lists the indices of op's instructions in main's only block.
	at := map[ir.Op][]int{}
	for i, in := range mn.Blocks[0].Instrs {
		at[in.Op] = append(at[in.Op], i)
	}
	store1, store2 := at[ir.OpStore][0], at[ir.OpStore][1]
	txBegin, load, txEnd := at[ir.OpTxBegin][0], at[ir.OpLoad][0], at[ir.OpTxEnd][0]
	exec := func(max, wantN int, wantOK bool, wantNext ir.Op) {
		t.Helper()
		if n, ok := p.Exec(env, th, max); n != wantN || ok != wantOK {
			t.Fatalf("Exec(max %d) = (%d, %v), want (%d, %v)", max, n, ok, wantN, wantOK)
		}
		if op := nextOp(th); op != wantNext {
			t.Fatalf("stopped before %v, want %v", op, wantNext)
		}
	}

	// Locals only, into and out of sq (Bin, Ret), up to the first store.
	exec(1, 1, true, ir.OpConst)
	exec(100, store1+len(p.M.Func("sq").Blocks[0].Instrs)-1, true, ir.OpStore)
	// A shared first instruction, then locals; max caps the run.
	exec(2, 2, true, ir.OpBin)
	exec(100, txBegin-store1-2, true, ir.OpTxBegin)
	// A stalled first instruction does not move the PC.
	env.stallTx = true
	exec(100, 1, false, ir.OpTxBegin)
	if pc := th.Top().PC; pc != txBegin {
		t.Fatalf("PC after a stall = %d, want %d", pc, txBegin)
	}
	env.stallTx = false
	exec(100, load-txBegin, true, ir.OpLoad)
	exec(100, store2-load, true, ir.OpStore)
	// An aborted first instruction leaves the PC at the restored TxBegin.
	env.abortAtStore = env.storeCount + 1
	exec(100, 1, false, ir.OpTxBegin)
	if pc := th.Top().PC; pc != txBegin {
		t.Fatalf("PC after an abort = %d, want %d", pc, txBegin)
	}
	exec(100, load-txBegin, true, ir.OpLoad)
	exec(100, store2-load, true, ir.OpStore)
	exec(100, txEnd-store2, true, ir.OpTxEnd)
	// TxEnd, then the final Ret finishes the thread.
	if n, ok := p.Exec(env, th, 100); n != 2 || !ok || !th.Done {
		t.Fatalf("Exec over the final Ret = (%d, %v), done %v; want (2, true), done", n, ok, th.Done)
	}
	if n, ok := p.Exec(env, th, 100); n != 0 || ok {
		t.Fatalf("Exec of a done thread = (%d, %v), want (0, false)", n, ok)
	}
	if v := env.mem.ReadWord(p.GlobalAddr("out")); v < 2 || v > 101 {
		t.Fatalf("out = %d, want a square in [1, 100] plus one", v)
	}
}
