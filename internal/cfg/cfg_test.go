package cfg

import (
	"strings"
	"testing"

	"hintm/internal/ir"
)

// diamond builds: entry -> (then|else) -> exit, with a TX spanning it all.
func diamond(t *testing.T, txSpans bool) *ir.Func {
	t.Helper()
	b := ir.NewBuilder("m")
	b.Global("g", 1)
	f := b.Function("main", 0)
	then := f.NewBlock("then")
	els := f.NewBlock("else")
	exit := f.NewBlock("exit")

	if txSpans {
		f.TxBegin()
	}
	c := f.C(1)
	f.CondBr(c, then, els)

	f.SetBlock(then)
	g := f.GlobalAddr("g")
	f.Store(g, 0, c)
	f.Br(exit)

	f.SetBlock(els)
	f.Br(exit)

	f.SetBlock(exit)
	if txSpans {
		f.TxEnd()
	}
	f.RetVoid()

	if err := b.M.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return f.F
}

func TestCFGEdges(t *testing.T) {
	f := diamond(t, false)
	g := New(f)
	entry := f.Entry()
	if len(g.Succs[entry]) != 2 {
		t.Fatalf("entry succs = %d, want 2", len(g.Succs[entry]))
	}
	exit := f.Block("exit")
	if len(g.Preds[exit]) != 2 {
		t.Fatalf("exit preds = %d, want 2", len(g.Preds[exit]))
	}
	if len(g.RPO) != 4 {
		t.Fatalf("RPO covers %d blocks, want 4", len(g.RPO))
	}
	if g.RPO[0] != entry {
		t.Fatal("RPO does not start at entry")
	}
	// Exit must come after both branches in RPO.
	pos := map[string]int{}
	for i, blk := range g.RPO {
		pos[blk.Name] = i
	}
	if pos["exit"] < pos["then"] || pos["exit"] < pos["else"] {
		t.Fatalf("RPO order wrong: %v", pos)
	}
}

func TestUnreachableBlockExcluded(t *testing.T) {
	b := ir.NewBuilder("m")
	f := b.Function("main", 0)
	dead := f.NewBlock("dead")
	f.RetVoid()
	f.SetBlock(dead)
	f.RetVoid()
	g := New(f.F)
	if len(g.RPO) != 1 {
		t.Fatalf("RPO = %d blocks, want 1 (dead excluded)", len(g.RPO))
	}
	if g.RPO[0] == dead {
		t.Fatal("dead block reported reachable")
	}
}

func TestTxRegionSpanningBlocks(t *testing.T) {
	f := diamond(t, true)
	region, err := TxRegions(f)
	if err != nil {
		t.Fatalf("TxRegions: %v", err)
	}
	var begins, stores, ends, inTx int
	f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
		switch in.Op {
		case ir.OpTxBegin:
			begins++
			if region.InTx(in) {
				t.Error("TxBegin should not be inside its own region")
			}
		case ir.OpTxEnd:
			ends++
			if !region.InTx(in) {
				t.Error("TxEnd should belong to the region")
			}
		case ir.OpStore:
			stores++
			if !region.InTx(in) {
				t.Error("store inside TX not in region")
			}
		}
		if region.InTx(in) {
			inTx++
		}
	})
	if begins != 1 || ends != 1 || stores != 1 {
		t.Fatalf("unexpected counts: %d %d %d", begins, ends, stores)
	}
	if inTx < 4 {
		t.Fatalf("region too small: %d instrs", inTx)
	}
}

func TestTxRegionOutsideEmpty(t *testing.T) {
	f := diamond(t, false)
	region, err := TxRegions(f)
	if err != nil {
		t.Fatalf("TxRegions: %v", err)
	}
	if len(region) != 0 {
		t.Fatalf("no TX, but region has %d instrs", len(region))
	}
}

func TestTxRegionRejectsNesting(t *testing.T) {
	b := ir.NewBuilder("m")
	f := b.Function("main", 0)
	f.TxBegin()
	f.TxBegin()
	f.TxEnd()
	f.TxEnd()
	f.RetVoid()
	if _, err := TxRegions(f.F); err == nil || !strings.Contains(err.Error(), "nested") {
		t.Fatalf("want nesting error, got %v", err)
	}
}

func TestTxRegionRejectsUnmatchedEnd(t *testing.T) {
	b := ir.NewBuilder("m")
	f := b.Function("main", 0)
	f.TxEnd()
	f.RetVoid()
	if _, err := TxRegions(f.F); err == nil || !strings.Contains(err.Error(), "without TxBegin") {
		t.Fatalf("want unmatched error, got %v", err)
	}
}

func TestTxRegionRejectsInconsistentJoin(t *testing.T) {
	// entry: condbr -> a (txbegin, br join) | b (br join); join: ret
	// Join sees TX-open from a and TX-closed from b.
	b := ir.NewBuilder("m")
	f := b.Function("main", 0)
	ba := f.NewBlock("a")
	bb := f.NewBlock("b")
	join := f.NewBlock("join")
	c := f.C(1)
	f.CondBr(c, ba, bb)
	f.SetBlock(ba)
	f.TxBegin()
	f.Br(join)
	f.SetBlock(bb)
	f.Br(join)
	f.SetBlock(join)
	f.TxEnd()
	f.RetVoid()
	if _, err := TxRegions(f.F); err == nil || !strings.Contains(err.Error(), "inconsistent") {
		t.Fatalf("want inconsistency error, got %v", err)
	}
}

func TestTxRegionLoopInsideTx(t *testing.T) {
	// txbegin; loop { store } cond; txend — region must be stable across
	// the back edge.
	b := ir.NewBuilder("m")
	b.Global("g", 1)
	f := b.Function("main", 0)
	loop := f.NewBlock("loop")
	done := f.NewBlock("done")
	f.TxBegin()
	f.Br(loop)
	f.SetBlock(loop)
	g := f.GlobalAddr("g")
	v := f.C(7)
	f.Store(g, 0, v)
	c := f.RandI(2)
	f.CondBr(c, loop, done)
	f.SetBlock(done)
	f.TxEnd()
	f.RetVoid()
	region, err := TxRegions(f.F)
	if err != nil {
		t.Fatalf("TxRegions: %v", err)
	}
	f.F.ForEachInstr(func(blk *ir.Block, in *ir.Instr) {
		if blk.Name == "loop" && !region.InTx(in) {
			t.Errorf("loop instr %v not in TX region", in)
		}
	})
}

func TestTwoSequentialTransactionsDistinct(t *testing.T) {
	b := ir.NewBuilder("m")
	b.Global("g", 1)
	f := b.Function("main", 0)
	g := f.GlobalAddr("g")
	v := f.C(1)
	f.TxBegin()
	f.Store(g, 0, v)
	f.TxEnd()
	f.TxBegin()
	f.Store(g, 0, v)
	f.TxEnd()
	f.RetVoid()
	region, err := TxRegions(f.F)
	if err != nil {
		t.Fatalf("TxRegions: %v", err)
	}
	ids := map[int]bool{}
	f.F.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
		if in.Op == ir.OpStore {
			ids[region[in]] = true
		}
	})
	if len(ids) != 2 {
		t.Fatalf("stores should belong to 2 distinct regions, got %d", len(ids))
	}
}
