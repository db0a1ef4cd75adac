package ir

import (
	"strings"
	"testing"
)

// buildCounterModule emits a tiny valid module:
//
//	main: parallel 4 x worker; ret
//	worker(tid): txbegin; g[0] += tid; txend; ret
func buildCounterModule(t testing.TB) *Module {
	t.Helper()
	b := NewBuilder("counter")
	b.Global("g", 1)

	w := b.ThreadBody("worker", 1)
	w.TxBegin()
	g := w.GlobalAddr("g")
	v := w.Load(g, 0)
	sum := w.Add(v, w.Param(0))
	w.Store(g, 0, sum)
	w.TxEnd()
	w.RetVoid()

	mn := b.Function("main", 0)
	n := mn.C(4)
	mn.Parallel(n, "worker")
	mn.RetVoid()

	if err := b.M.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return b.M
}

func TestBuildAndVerify(t *testing.T) {
	m := buildCounterModule(t)
	if m.Func("worker") == nil || m.Func("main") == nil {
		t.Fatal("functions not registered")
	}
	if m.Global("g") == nil {
		t.Fatal("global not registered")
	}
}

func TestInstrIDsUnique(t *testing.T) {
	m := buildCounterModule(t)
	seen := map[int]bool{}
	m.ForEachInstr(func(_ *Func, _ *Block, in *Instr) {
		if in.ID == 0 {
			t.Errorf("instruction %v has zero ID", in)
		}
		if seen[in.ID] {
			t.Errorf("duplicate instruction ID %d", in.ID)
		}
		seen[in.ID] = true
	})
}

func TestVerifyCatchesMissingMain(t *testing.T) {
	b := NewBuilder("nomain")
	f := b.Function("f", 0)
	f.RetVoid()
	if err := b.M.Verify(); err == nil || !strings.Contains(err.Error(), "no main") {
		t.Fatalf("want missing-main error, got %v", err)
	}
}

func TestVerifyCatchesUnterminatedBlock(t *testing.T) {
	b := NewBuilder("m")
	f := b.Function("main", 0)
	f.C(1) // no terminator
	if err := b.M.Verify(); err == nil || !strings.Contains(err.Error(), "terminator") {
		t.Fatalf("want terminator error, got %v", err)
	}
}

func TestVerifyCatchesBadBranchTarget(t *testing.T) {
	b := NewBuilder("m")
	f := b.Function("main", 0)
	f.emit(&Instr{Op: OpBr, Then: "nowhere"})
	if err := b.M.Verify(); err == nil || !strings.Contains(err.Error(), "unknown block") {
		t.Fatalf("want unknown-block error, got %v", err)
	}
}

func TestVerifyCatchesBadCallee(t *testing.T) {
	b := NewBuilder("m")
	f := b.Function("main", 0)
	f.emit(&Instr{Op: OpCall, Dst: NoReg, Sym: "ghost"})
	f.RetVoid()
	if err := b.M.Verify(); err == nil || !strings.Contains(err.Error(), "unknown callee") {
		t.Fatalf("want unknown-callee error, got %v", err)
	}
}

func TestVerifyCatchesArityMismatch(t *testing.T) {
	b := NewBuilder("m")
	g := b.Function("g", 2)
	g.RetVoid()
	f := b.Function("main", 0)
	one := f.C(1)
	f.emit(&Instr{Op: OpCall, Dst: NoReg, Sym: "g", Args: []Reg{one}})
	f.RetVoid()
	if err := b.M.Verify(); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("want arity error, got %v", err)
	}
}

func TestVerifyCatchesParallelToNonThreadBody(t *testing.T) {
	b := NewBuilder("m")
	g := b.Function("g", 1)
	g.RetVoid()
	f := b.Function("main", 0)
	n := f.C(2)
	f.emit(&Instr{Op: OpParallel, A: n, Sym: "g"})
	f.RetVoid()
	if err := b.M.Verify(); err == nil || !strings.Contains(err.Error(), "not a thread body") {
		t.Fatalf("want thread-body error, got %v", err)
	}
}

func TestVerifyCatchesRegisterOutOfRange(t *testing.T) {
	b := NewBuilder("m")
	f := b.Function("main", 0)
	f.emit(&Instr{Op: OpMov, Dst: 0, A: 99})
	f.RetVoid()
	f.F.NumRegs = 1
	if err := b.M.Verify(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("want out-of-range error, got %v", err)
	}
}

func TestBuilderPanicsAfterTerminator(t *testing.T) {
	b := NewBuilder("m")
	f := b.Function("main", 0)
	f.RetVoid()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic emitting after terminator")
		}
	}()
	f.C(1)
}

func TestAllocaFrameOffsets(t *testing.T) {
	b := NewBuilder("m")
	f := b.Function("main", 0)
	a1 := f.Alloca(4)
	a2 := f.Alloca(2)
	_ = a1
	_ = a2
	f.RetVoid()
	if f.F.AllocaWords != 6 {
		t.Fatalf("AllocaWords = %d, want 6", f.F.AllocaWords)
	}
	if err := b.M.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	var offs []int64
	f.F.ForEachInstr(func(_ *Block, in *Instr) {
		if in.Op == OpAlloca {
			offs = append(offs, in.Imm)
		}
	})
	if len(offs) != 2 || offs[0] != 0 || offs[1] != 4 {
		t.Fatalf("alloca offsets = %v", offs)
	}
}

func TestUsesAndDefs(t *testing.T) {
	in := &Instr{Op: OpStore, A: 1, B: 2}
	uses := in.Uses()
	if len(uses) != 2 || uses[0] != 1 || uses[1] != 2 {
		t.Errorf("store uses = %v", uses)
	}
	if in.Def() != NoReg {
		t.Errorf("store def = %v", in.Def())
	}
	ld := &Instr{Op: OpLoad, Dst: 3, A: 1}
	if ld.Def() != 3 || len(ld.Uses()) != 1 {
		t.Errorf("load def/uses wrong")
	}
	call := &Instr{Op: OpCall, Dst: 5, Args: []Reg{1, 2}}
	if got := call.Uses(); len(got) != 2 {
		t.Errorf("call uses = %v", got)
	}
	ret := &Instr{Op: OpRet, A: NoReg}
	if len(ret.Uses()) != 0 {
		t.Errorf("void ret should use nothing")
	}
}

func TestPrinterMentionsEverything(t *testing.T) {
	m := buildCounterModule(t)
	s := m.String()
	for _, want := range []string{"module counter", "global @g", "threadbody @worker",
		"txbegin", "txend", "parallel", "load", "store"} {
		if !strings.Contains(s, want) {
			t.Errorf("printer output missing %q:\n%s", want, s)
		}
	}
}

func TestSafePrinting(t *testing.T) {
	in := &Instr{Op: OpLoad, Dst: 1, A: 0, Safe: true}
	if !strings.Contains(in.String(), "load.safe") {
		t.Errorf("safe load prints as %q", in.String())
	}
	st := &Instr{Op: OpStore, A: 0, B: 1, Safe: true}
	if !strings.Contains(st.String(), "store.safe") {
		t.Errorf("safe store prints as %q", st.String())
	}
}

func TestCloneFunc(t *testing.T) {
	m := buildCounterModule(t)
	orig := m.Func("worker")
	clone := m.CloneFunc(orig, "worker$safe")
	if m.Func("worker$safe") != clone {
		t.Fatal("clone not registered")
	}
	if len(clone.Blocks) != len(orig.Blocks) {
		t.Fatal("clone block count differs")
	}
	// Mutating the clone must not touch the original.
	clone.ForEachInstr(func(_ *Block, in *Instr) {
		if in.IsMemAccess() {
			in.Safe = true
		}
	})
	orig.ForEachInstr(func(_ *Block, in *Instr) {
		if in.Safe {
			t.Fatal("clone mutation leaked into original")
		}
	})
	// IDs must be fresh.
	ids := map[int]bool{}
	m.ForEachInstr(func(_ *Func, _ *Block, in *Instr) {
		if ids[in.ID] {
			t.Fatalf("duplicate instr id %d after clone", in.ID)
		}
		ids[in.ID] = true
	})
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify after clone: %v", err)
	}
}

func TestBinCmpStrings(t *testing.T) {
	kinds := []BinKind{BinAdd, BinSub, BinMul, BinDiv, BinMod, BinAnd, BinOr, BinXor, BinShl, BinShr}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if seen[s] {
			t.Errorf("duplicate BinKind name %q", s)
		}
		seen[s] = true
	}
	preds := []CmpKind{CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE}
	seen = map[string]bool{}
	for _, p := range preds {
		s := p.String()
		if seen[s] {
			t.Errorf("duplicate CmpKind name %q", s)
		}
		seen[s] = true
	}
}
