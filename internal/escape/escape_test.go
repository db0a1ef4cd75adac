package escape

import (
	"testing"

	"hintm/internal/alias"
	"hintm/internal/ir"
)

func analyze(t *testing.T, b *ir.Builder) *Result {
	t.Helper()
	if err := b.M.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return Analyze(b.M, alias.Analyze(b.M))
}

func objOf(t *testing.T, r *Result, f *ir.FuncBuilder, reg ir.Reg) alias.ObjID {
	t.Helper()
	s := r.A.PointsTo(f.F, reg).Sorted()
	if len(s) != 1 {
		t.Fatalf("expected singleton points-to, got %v", s)
	}
	return s[0]
}

// Listing-2 analogue: worker mallocs a private grid (freed at thread end)
// and a vector that is published into a global list.
func buildListing2(t *testing.T) (*ir.Builder, *ir.FuncBuilder, ir.Reg, ir.Reg) {
	b := ir.NewBuilder("listing2")
	b.Global("globalList", 64)

	w := b.ThreadBody("worker", 1)
	grid := w.MallocI(256) // thread-private scratchpad
	vec := w.MallocI(64)   // escapes into globalList
	gl := w.GlobalAddr("globalList")
	w.Store(gl, 0, vec) // publish vec
	other := w.Load(gl, 0)
	zero := w.C(0)
	w.Store(other, 0, zero) // another thread mutates published vectors
	v := w.C(7)
	w.Store(grid, 0, v)
	w.FreeI(grid, 256)
	w.RetVoid()

	mn := b.Function("main", 0)
	n := mn.C(4)
	mn.Parallel(n, "worker")
	mn.RetVoid()
	return b, w, grid, vec
}

func TestThreadPrivateHeapScratchpad(t *testing.T) {
	b, w, grid, vec := buildListing2(t)
	r := analyze(t, b)
	gridObj := objOf(t, r, w, grid)
	vecObj := objOf(t, r, w, vec)

	if !r.ThreadPrivate(gridObj) {
		t.Error("freed, unescaping scratchpad should be thread-private")
	}
	if r.ThreadPrivate(vecObj) {
		t.Error("published vector must not be thread-private")
	}
	if !r.SharedReach[vecObj] {
		t.Error("published vector should be shared-reachable")
	}
	if r.SafeLocation(vecObj) {
		t.Error("published+written vector must be unsafe")
	}
	if !r.SafeLocation(gridObj) {
		t.Error("scratchpad should be a safe location")
	}
}

func TestUnfreedMallocNotThreadPrivate(t *testing.T) {
	// Algorithm 1 criterion (ii): no de-allocation in region -> not private.
	b := ir.NewBuilder("m")
	w := b.ThreadBody("worker", 1)
	p := w.MallocI(64)
	v := w.C(1)
	w.Store(p, 0, v)
	w.RetVoid()
	mn := b.Function("main", 0)
	n := mn.C(2)
	mn.Parallel(n, "worker")
	mn.RetVoid()

	r := analyze(t, b)
	obj := objOf(t, r, w, p)
	if r.ThreadPrivate(obj) {
		t.Error("unfreed heap object should fail Algorithm 1")
	}
}

func TestStackAllocaThreadPrivateWithoutFree(t *testing.T) {
	b := ir.NewBuilder("m")
	w := b.ThreadBody("worker", 1)
	slot := w.Alloca(4)
	v := w.C(1)
	w.Store(slot, 0, v)
	w.RetVoid()
	mn := b.Function("main", 0)
	n := mn.C(2)
	mn.Parallel(n, "worker")
	mn.RetVoid()

	r := analyze(t, b)
	obj := objOf(t, r, w, slot)
	if !r.ThreadPrivate(obj) {
		t.Error("non-escaping alloca in thread body should be private")
	}
}

func TestAllocaEscapingThroughCallStaysPrivate(t *testing.T) {
	// Passing an alloca by reference to a callee that only stores into it
	// does not make it shared (capture-tracking case from Listing 1).
	b := ir.NewBuilder("m")
	init := b.Function("init", 1)
	v := init.C(3)
	init.Store(init.Param(0), 0, v)
	init.RetVoid()

	w := b.ThreadBody("worker", 1)
	slot := w.Alloca(1)
	w.CallVoid("init", slot)
	w.RetVoid()

	mn := b.Function("main", 0)
	n := mn.C(2)
	mn.Parallel(n, "worker")
	mn.RetVoid()

	r := analyze(t, b)
	obj := objOf(t, r, w, slot)
	if !r.ThreadPrivate(obj) {
		t.Error("call-by-reference alone must not defeat privacy")
	}
	if !r.ParallelFuncs["init"] {
		t.Error("callee of thread body should be in parallel region")
	}
}

func TestReadOnlySharedGlobal(t *testing.T) {
	// main initializes a table; workers only read it.
	b := ir.NewBuilder("m")
	b.Global("table", 128)
	b.Global("sink", 1)
	w := b.ThreadBody("worker", 1)
	tp := w.GlobalAddr("table")
	x := w.Load(tp, 0)
	sink := w.GlobalAddr("sink")
	w.Store(sink, 0, x)
	w.RetVoid()
	mn := b.Function("main", 0)
	tp2 := mn.GlobalAddr("table")
	c := mn.C(9)
	mn.Store(tp2, 0, c) // setup write, outside parallel region
	n := mn.C(4)
	mn.Parallel(n, "worker")
	mn.RetVoid()

	r := analyze(t, b)
	tblObj, _ := r.A.ObjectForGlobal("table")
	sinkObj, _ := r.A.ObjectForGlobal("sink")
	if !r.ReadOnlyShared(tblObj) {
		t.Error("table written only during setup should be read-only shared")
	}
	if !r.SafeLocation(tblObj) {
		t.Error("read-only shared table should be safe")
	}
	if r.ReadOnlyShared(sinkObj) || r.SafeLocation(sinkObj) {
		t.Error("sink written in region must be unsafe")
	}
}

func TestSharedViaParallelArg(t *testing.T) {
	// Heap object created in main and passed to workers is shared.
	b := ir.NewBuilder("m")
	w := b.ThreadBody("worker", 2)
	v := w.C(1)
	w.Store(w.Param(1), 0, v)
	w.RetVoid()
	mn := b.Function("main", 0)
	buf := mn.MallocI(512)
	n := mn.C(4)
	mn.Parallel(n, "worker", buf)
	mn.RetVoid()

	r := analyze(t, b)
	obj := objOf(t, r, mn, buf)
	if !r.SharedReach[obj] {
		t.Error("parallel arg should be shared-reachable")
	}
	if r.SafeLocation(obj) {
		t.Error("written shared arg must be unsafe")
	}
}

func TestAllSafeRequiresNonEmpty(t *testing.T) {
	b := ir.NewBuilder("m")
	mn := b.Function("main", 0)
	mn.RetVoid()
	r := analyze(t, b)
	if r.AllSafe(alias.ObjSet{}) {
		t.Error("empty set must be conservatively unsafe")
	}
}

func TestMainOnlyAllocaNotInRegion(t *testing.T) {
	b := ir.NewBuilder("m")
	w := b.ThreadBody("worker", 1)
	w.RetVoid()
	mn := b.Function("main", 0)
	slot := mn.Alloca(1)
	c := mn.C(1)
	mn.Store(slot, 0, c)
	n := mn.C(2)
	mn.Parallel(n, "worker")
	mn.RetVoid()

	r := analyze(t, b)
	obj := objOf(t, r, mn, slot)
	if r.AllocatedInRegion[obj] {
		t.Error("main's alloca is outside the parallel region")
	}
	if r.ThreadPrivate(obj) {
		t.Error("setup-only allocation should not be classified thread-private")
	}
}
