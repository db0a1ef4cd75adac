package alias

import (
	"testing"

	"hintm/internal/ir"
)

func mustVerify(t *testing.T, b *ir.Builder) {
	t.Helper()
	if err := b.M.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestGlobalAddrPointsToGlobal(t *testing.T) {
	b := ir.NewBuilder("m")
	b.Global("g", 4)
	f := b.Function("main", 0)
	gp := f.GlobalAddr("g")
	f.RetVoid()
	mustVerify(t, b)

	a := Analyze(b.M)
	pts := a.PointsTo(f.F, gp)
	gid, _ := a.ObjectForGlobal("g")
	if len(pts) != 1 || !pts.Has(gid) {
		t.Fatalf("pts(gp) = %v, want {@g}", pts.Sorted())
	}
}

func TestMovAndArithmeticPropagate(t *testing.T) {
	b := ir.NewBuilder("m")
	b.Global("g", 4)
	f := b.Function("main", 0)
	gp := f.GlobalAddr("g")
	cp := f.Mov(gp)
	off := f.AddI(cp, 16)
	f.RetVoid()
	mustVerify(t, b)

	a := Analyze(b.M)
	gid, _ := a.ObjectForGlobal("g")
	if !a.PointsTo(f.F, off).Has(gid) {
		t.Fatal("pointer arithmetic lost provenance")
	}
}

func TestStoreLoadThroughMemory(t *testing.T) {
	// slot = alloca; *slot = &g; p = *slot; p must point to g.
	b := ir.NewBuilder("m")
	b.Global("g", 1)
	f := b.Function("main", 0)
	slot := f.Alloca(1)
	gp := f.GlobalAddr("g")
	f.Store(slot, 0, gp)
	p := f.Load(slot, 0)
	f.RetVoid()
	mustVerify(t, b)

	a := Analyze(b.M)
	gid, _ := a.ObjectForGlobal("g")
	if !a.PointsTo(f.F, p).Has(gid) {
		t.Fatalf("load through memory lost target: %v", a.PointsTo(f.F, p).Sorted())
	}
}

func TestCallParamAndReturnFlow(t *testing.T) {
	// id(p) { return p }; main: q = id(&g)
	b := ir.NewBuilder("m")
	b.Global("g", 1)
	id := b.Function("id", 1)
	id.Ret(id.Param(0))
	f := b.Function("main", 0)
	gp := f.GlobalAddr("g")
	q := f.Call("id", gp)
	f.RetVoid()
	mustVerify(t, b)

	a := Analyze(b.M)
	gid, _ := a.ObjectForGlobal("g")
	if !a.PointsTo(f.F, q).Has(gid) {
		t.Fatal("return flow lost target")
	}
	if !a.PointsTo(id.F, id.Param(0)).Has(gid) {
		t.Fatal("param flow lost target")
	}
}

func TestParallelArgFlow(t *testing.T) {
	b := ir.NewBuilder("m")
	b.Global("shared", 8)
	w := b.ThreadBody("worker", 2)
	w.RetVoid()
	f := b.Function("main", 0)
	sp := f.GlobalAddr("shared")
	n := f.C(4)
	f.Parallel(n, "worker", sp)
	f.RetVoid()
	mustVerify(t, b)

	a := Analyze(b.M)
	gid, _ := a.ObjectForGlobal("shared")
	if !a.PointsTo(w.F, w.Param(1)).Has(gid) {
		t.Fatal("parallel arg flow lost target")
	}
	if len(a.PointsTo(w.F, w.Param(0))) != 0 {
		t.Fatal("tid param should not be a pointer")
	}
}

func TestMallocSitesDistinct(t *testing.T) {
	b := ir.NewBuilder("m")
	f := b.Function("main", 0)
	p1 := f.MallocI(64)
	p2 := f.MallocI(64)
	f.RetVoid()
	mustVerify(t, b)

	a := Analyze(b.M)
	s1 := a.PointsTo(f.F, p1)
	s2 := a.PointsTo(f.F, p2)
	if len(s1) != 1 || len(s2) != 1 {
		t.Fatalf("sizes: %d %d", len(s1), len(s2))
	}
	if s1.Sorted()[0] == s2.Sorted()[0] {
		t.Fatal("distinct malloc sites merged")
	}
}

func TestHeapGraphContents(t *testing.T) {
	// outer = malloc; inner = malloc; *outer = inner
	// Contents(outer) must include inner's object.
	b := ir.NewBuilder("m")
	f := b.Function("main", 0)
	outer := f.MallocI(8)
	inner := f.MallocI(8)
	f.Store(outer, 0, inner)
	f.RetVoid()
	mustVerify(t, b)

	a := Analyze(b.M)
	outerObj := a.PointsTo(f.F, outer).Sorted()[0]
	innerObj := a.PointsTo(f.F, inner).Sorted()[0]
	if !a.Contents(outerObj).Has(innerObj) {
		t.Fatal("heap graph missing outer->inner edge")
	}
}

func TestTransitiveReachThroughTwoHops(t *testing.T) {
	// g -> a -> b; loading twice from g must yield b.
	b := ir.NewBuilder("m")
	b.Global("g", 1)
	f := b.Function("main", 0)
	gp := f.GlobalAddr("g")
	pa := f.MallocI(8)
	pb := f.MallocI(8)
	f.Store(gp, 0, pa)
	f.Store(pa, 0, pb)
	l1 := f.Load(gp, 0)
	l2 := f.Load(l1, 0)
	f.RetVoid()
	mustVerify(t, b)

	a := Analyze(b.M)
	bObj := a.PointsTo(f.F, pb).Sorted()[0]
	if !a.PointsTo(f.F, l2).Has(bObj) {
		t.Fatalf("two-hop load lost target: %v", a.PointsTo(f.F, l2).Sorted())
	}
}

func TestScalarsHaveEmptyPointsTo(t *testing.T) {
	b := ir.NewBuilder("m")
	f := b.Function("main", 0)
	x := f.C(5)
	y := f.AddI(x, 3)
	f.RetVoid()
	mustVerify(t, b)

	a := Analyze(b.M)
	if len(a.PointsTo(f.F, y)) != 0 {
		t.Fatal("scalar register has points-to targets")
	}
}

func TestAccessedObjects(t *testing.T) {
	b := ir.NewBuilder("m")
	b.Global("g", 1)
	f := b.Function("main", 0)
	gp := f.GlobalAddr("g")
	v := f.C(1)
	f.Store(gp, 0, v)
	f.RetVoid()
	mustVerify(t, b)

	a := Analyze(b.M)
	var store *ir.Instr
	f.F.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
		if in.Op == ir.OpStore {
			store = in
		}
	})
	objs := a.AccessedObjects(f.F, store)
	gid, _ := a.ObjectForGlobal("g")
	if len(objs) != 1 || !objs.Has(gid) {
		t.Fatalf("AccessedObjects = %v", objs.Sorted())
	}
	if a.AccessedObjects(f.F, &ir.Instr{Op: ir.OpConst}) != nil {
		t.Fatal("non-mem instr should yield nil")
	}
}

func TestObjectLabels(t *testing.T) {
	b := ir.NewBuilder("m")
	b.Global("g", 1)
	f := b.Function("main", 0)
	f.Alloca(1)
	f.MallocI(8)
	f.RetVoid()
	mustVerify(t, b)
	a := Analyze(b.M)
	kinds := map[ObjKind]bool{}
	for _, o := range a.objects {
		if o.String() == "" {
			t.Error("empty object label")
		}
		kinds[o.Kind] = true
	}
	if !kinds[ObjGlobal] || !kinds[ObjAlloca] || !kinds[ObjMalloc] {
		t.Fatalf("missing object kinds: %v", kinds)
	}
}
