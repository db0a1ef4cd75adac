package mem

import (
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	if WordsPerPage != 512 || WordsPerBlock != 8 || BlocksPerPage != 64 {
		t.Fatalf("geometry mismatch: %d %d %d", WordsPerPage, WordsPerBlock, BlocksPerPage)
	}
}

func TestAddrDerivations(t *testing.T) {
	a := Addr(0x1234)
	if a.Block() != 0x1234/64 {
		t.Errorf("Block() = %d", a.Block())
	}
	if a.Page() != 0x1234/4096 {
		t.Errorf("Page() = %d", a.Page())
	}
	if !Addr(16).WordAligned() || Addr(17).WordAligned() {
		t.Error("WordAligned misbehaves")
	}
}

func TestAddrDerivationsProperty(t *testing.T) {
	f := func(raw uint64) bool {
		a := Addr(raw &^ 7) // word aligned
		block, page := Addr(a.Block()*BlockSize), Addr(a.Page()*PageSize)
		return block <= a && a < block+BlockSize &&
			page <= a && a < page+PageSize &&
			a.Block()/BlocksPerPage == a.Page()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	if got := m.ReadWord(0x1000); got != 0 {
		t.Fatalf("unwritten memory read %d, want 0", got)
	}
	m.WriteWord(0x1000, 42)
	m.WriteWord(0x1008, -7)
	if got := m.ReadWord(0x1000); got != 42 {
		t.Errorf("ReadWord(0x1000) = %d", got)
	}
	if got := m.ReadWord(0x1008); got != -7 {
		t.Errorf("ReadWord(0x1008) = %d", got)
	}
	if m.idx.N != 1 {
		t.Errorf("backed pages = %d, want 1", m.idx.N)
	}
	m.WriteWord(99*PageSize, 1)
	if m.idx.N != 2 {
		t.Errorf("backed pages = %d, want 2", m.idx.N)
	}
}

func TestMemoryRoundTripProperty(t *testing.T) {
	m := NewMemory()
	f := func(raw uint64, v int64) bool {
		a := Addr(raw &^ 7)
		m.WriteWord(a, v)
		return m.ReadWord(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryUnalignedPanics(t *testing.T) {
	m := NewMemory()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unaligned read")
		}
	}()
	m.ReadWord(3)
}

func TestSegments(t *testing.T) {
	al := NewAllocator()
	g := al.AllocGlobal(16)
	h := al.Malloc(0, 16)
	s := al.StackAlloc(2, 16)
	if g < GlobalsBase || g >= HeapBase {
		t.Errorf("global %v outside the globals segment", g)
	}
	if h < HeapBase || h >= StackBase {
		t.Errorf("heap block %v outside the heap segment", h)
	}
	if s < StackBase {
		t.Errorf("stack frame %v outside the stack area", s)
	}
	if stackOwner(s) != 2 {
		t.Errorf("stack owner = %d, want 2", stackOwner(s))
	}
}

// stackOwner returns the thread whose stack window holds a stack address.
func stackOwner(a Addr) int {
	return int((a - StackBase) / StackStride)
}

func TestAllocatorGlobalBump(t *testing.T) {
	al := NewAllocator()
	a := al.AllocGlobal(10) // rounds to 16
	b := al.AllocGlobal(8)
	if b != a+16 {
		t.Errorf("global bump: a=%v b=%v", a, b)
	}
	c := al.AllocGlobalPageAligned(8)
	if uint64(c)%PageSize != 0 {
		t.Errorf("page-aligned global %v not aligned", c)
	}
	if c < b {
		t.Errorf("page-aligned global %v overlaps previous %v", c, b)
	}
}

func TestMallocPerThreadArenaSeparation(t *testing.T) {
	al := NewAllocator()
	a0 := al.Malloc(0, 64)
	a1 := al.Malloc(1, 64)
	if a0.Page() == a1.Page() {
		t.Errorf("threads share an arena page: %v vs %v", a0, a1)
	}
	b0 := al.Malloc(0, 64)
	if b0.Page() != a0.Page() {
		t.Errorf("same-thread small allocs should share a page early on")
	}
}

func TestMallocFreeRecycles(t *testing.T) {
	al := NewAllocator()
	a := al.Malloc(0, 48)
	al.Free(0, a, 48)
	b := al.Malloc(0, 48)
	if a != b {
		t.Errorf("free-list recycle failed: %v then %v", a, b)
	}
}

func TestMallocLargePageAligned(t *testing.T) {
	al := NewAllocator()
	a := al.Malloc(0, 1<<17)
	if uint64(a)%PageSize != 0 {
		t.Errorf("large alloc %v not page aligned", a)
	}
	b := al.Malloc(0, 8)
	if b >= a && b < a+(1<<17) {
		t.Errorf("small alloc %v landed inside large block at %v", b, a)
	}
}

func TestMallocNonOverlapProperty(t *testing.T) {
	al := NewAllocator()
	type span struct{ lo, hi Addr }
	var spans []span
	sizes := []int64{8, 16, 24, 64, 128, 4096, 70000}
	for i := 0; i < 400; i++ {
		tid := i % 4
		sz := sizes[i%len(sizes)]
		a := al.Malloc(tid, sz)
		rounded := (sz + 7) &^ 7
		s := span{a, a + Addr(rounded)}
		for _, prev := range spans {
			if s.lo < prev.hi && prev.lo < s.hi {
				t.Fatalf("overlap: [%v,%v) with [%v,%v)", s.lo, s.hi, prev.lo, prev.hi)
			}
		}
		spans = append(spans, s)
	}
}

func TestStackAllocRelease(t *testing.T) {
	al := NewAllocator()
	base := al.StackTop(1)
	f1 := al.StackAlloc(1, 32)
	if f1 != base {
		t.Errorf("first frame at %v, want %v", f1, base)
	}
	f2 := al.StackAlloc(1, 32)
	if f2 != f1+32 {
		t.Errorf("second frame at %v, want %v", f2, f1+32)
	}
	al.StackRelease(1, f2)
	f3 := al.StackAlloc(1, 8)
	if f3 != f2 {
		t.Errorf("release/realloc: %v, want %v", f3, f2)
	}
}

func TestStackIsolationBetweenThreads(t *testing.T) {
	al := NewAllocator()
	s0 := al.StackAlloc(0, 1024)
	s1 := al.StackAlloc(1, 1024)
	if stackOwner(s0) != 0 || stackOwner(s1) != 1 {
		t.Errorf("stack owners wrong: %d %d", stackOwner(s0), stackOwner(s1))
	}
	if s0.Page() == s1.Page() {
		t.Error("thread stacks share a page")
	}
}

func TestStackOverflowPanics(t *testing.T) {
	al := NewAllocator()
	defer func() {
		if recover() == nil {
			t.Fatal("expected stack overflow panic")
		}
	}()
	for i := 0; i < 20; i++ {
		al.StackAlloc(0, StackStride/8)
	}
}
