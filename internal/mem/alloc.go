package mem

import "fmt"

// Address-space layout. The simulator uses a single flat address space per
// simulated process, carved into segments: globals, the heap, and one stack
// window per thread.
const (
	// GlobalsBase is the start of the global data segment.
	GlobalsBase Addr = 0x0000_0000_0001_0000
	// HeapBase is the start of the shared heap segment.
	HeapBase Addr = 0x0000_0001_0000_0000
	// StackBase is the start of the stack area; each thread's stack is a
	// disjoint StackStride-sized window above this.
	StackBase Addr = 0x0000_7000_0000_0000
	// StackStride is the virtual-address distance between thread stacks.
	StackStride = 1 << 24 // 16 MiB
	// arenaChunk is the unit in which per-thread heap arenas grow.
	arenaChunk = 1 << 16 // 64 KiB
)

// Allocator manages the simulated address space: a bump-allocated globals
// segment, per-thread heap arenas (mirroring the per-thread memory pools of
// real TM runtimes such as STAMP's), and per-thread stacks.
//
// Per-thread arenas matter for fidelity: they keep thread-private heap
// allocations on thread-private pages, which is precisely the sharing
// pattern HinTM's dynamic page classifier exploits.
type Allocator struct {
	globalsNext Addr
	heapNext    Addr
	arenas      map[int]*arena
	stackNext   map[int]Addr
}

type arena struct {
	next Addr // next free byte within the current chunk
	end  Addr // end of the current chunk
	free map[int64][]Addr
}

// NewAllocator returns an allocator with empty segments.
func NewAllocator() *Allocator {
	return &Allocator{
		globalsNext: GlobalsBase,
		heapNext:    HeapBase,
		arenas:      make(map[int]*arena),
		stackNext:   make(map[int]Addr),
	}
}

// AllocGlobal reserves size bytes (word-rounded) in the globals segment and
// returns the base address. Globals are allocated before threads start.
func (al *Allocator) AllocGlobal(size int64) Addr {
	a := al.globalsNext
	al.globalsNext += Addr(roundWords(size))
	return a
}

// AllocGlobalPageAligned reserves size bytes starting at a fresh page in the
// globals segment. Used for large shared tables so that page-level sharing
// metrics are not polluted by segment-neighbour false sharing.
func (al *Allocator) AllocGlobalPageAligned(size int64) Addr {
	al.globalsNext = (al.globalsNext + PageSize - 1) &^ (PageSize - 1)
	return al.AllocGlobal(size)
}

// Malloc allocates size bytes (word-rounded) on the heap from thread tid's
// arena. Allocations never straddle an arena chunk boundary's end; a chunk
// that cannot fit the request is abandoned and a new one is carved.
// Requests larger than one chunk get dedicated page-aligned space.
func (al *Allocator) Malloc(tid int, size int64) Addr {
	if size <= 0 {
		size = WordSize
	}
	size = roundWords(size)
	if size >= arenaChunk {
		// Large allocation: dedicated page-aligned region straight from
		// the shared heap cursor.
		al.heapNext = (al.heapNext + PageSize - 1) &^ (PageSize - 1)
		a := al.heapNext
		al.heapNext += Addr((size + PageSize - 1) &^ (PageSize - 1))
		return a
	}
	ar := al.arenas[tid]
	if ar == nil {
		ar = &arena{free: make(map[int64][]Addr)}
		al.arenas[tid] = ar
	}
	if lst := ar.free[size]; len(lst) > 0 {
		a := lst[len(lst)-1]
		ar.free[size] = lst[:len(lst)-1]
		return a
	}
	if ar.next+Addr(size) > ar.end {
		// Carve a fresh page-aligned chunk for this thread.
		al.heapNext = (al.heapNext + PageSize - 1) &^ (PageSize - 1)
		ar.next = al.heapNext
		ar.end = ar.next + arenaChunk
		al.heapNext = ar.end
	}
	a := ar.next
	ar.next += Addr(size)
	return a
}

// Free returns a previously Malloc'd block of the given size to tid's arena
// free list. Size must match the original request's rounded size; the
// simulator's workloads always free what they allocated.
func (al *Allocator) Free(tid int, a Addr, size int64) {
	if size <= 0 {
		size = WordSize
	}
	size = roundWords(size)
	if size >= arenaChunk {
		return // large blocks are not recycled
	}
	ar := al.arenas[tid]
	if ar == nil {
		ar = &arena{free: make(map[int64][]Addr)}
		al.arenas[tid] = ar
	}
	ar.free[size] = append(ar.free[size], a)
}

// StackAlloc reserves size bytes on thread tid's stack and returns the base
// address of the new frame region. Frames are released with StackRelease.
func (al *Allocator) StackAlloc(tid int, size int64) Addr {
	sp, ok := al.stackNext[tid]
	if !ok {
		sp = StackBase + Addr(uint64(tid)*StackStride)
	}
	a := sp
	sp += Addr(roundWords(size))
	if uint64(sp) >= uint64(StackBase)+uint64(tid+1)*StackStride {
		panic(fmt.Sprintf("mem: stack overflow for thread %d", tid))
	}
	al.stackNext[tid] = sp
	return a
}

// StackRelease pops thread tid's stack back to base (a value previously
// returned by StackAlloc).
func (al *Allocator) StackRelease(tid int, base Addr) {
	al.stackNext[tid] = base
}

// StackTop returns the current stack cursor for tid.
func (al *Allocator) StackTop(tid int) Addr {
	sp, ok := al.stackNext[tid]
	if !ok {
		sp = StackBase + Addr(uint64(tid)*StackStride)
	}
	return sp
}

func roundWords(size int64) int64 {
	return (size + WordSize - 1) &^ (WordSize - 1)
}
