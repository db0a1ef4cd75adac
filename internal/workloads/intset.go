package workloads

import "hintm/internal/ir"

// intset-ll is the classic TM sorted-linked-list microbenchmark: a list of
// heap nodes shared by all threads, where every operation pointer-chases
// half the list inside its transaction — large readsets over genuinely
// shared, genuinely written memory. It is an Extra workload, not part of
// the paper's evaluation suite, and HinTM's honest worst case: neither
// classifier can prove anything (the nodes are shared-reachable and their
// pages turn read-write), so capacity aborts persist with hints enabled,
// while P8S and InfCap show what a truly larger HTM would buy. The
// hints-need-safety hypothesis checks exactly that.
func init() {
	register(&Spec{
		Name:           "intset-ll",
		DefaultThreads: 8,
		Description:    "sorted linked-list set; pointer-chasing readsets HinTM cannot classify",
		Build:          buildIntsetLL,
		Extra:          true,
	})
}

// Node layout (one cache block): [0]=value, [8]=next pointer, [16]=dead flag.
const llNodeSize = 64

func buildIntsetLL(threads int, scale Scale) *ir.Module {
	initial := scale.pick(96, 192, 320) // initial list length (≈ blocks walked/2)
	opsPerThread := scale.pick(6, 24, 40)
	keyspace := initial * 8

	b := ir.NewBuilder("intset-ll")
	b.Global("head", 1) // pointer to first node
	// The initial nodes come from a contiguous arena so main can build the
	// list without malloc bookkeeping; TX-inserted nodes use malloc.
	b.GlobalPageAligned("arena", initial*8)

	w := newFn(b.ThreadBody("worker", 1))
	head := w.GlobalAddr("head")
	keyReg := w.C(keyspace)

	w.ForI(opsPerThread, func(op ir.Reg) {
		target := w.Rand(keyReg)
		insert := w.Cmp(ir.CmpLT, w.RandI(100), w.C(50))

		w.TxBegin()
		// Traverse: prev/cur pointer chase until cur.value >= target.
		prev := w.Mov(w.Load(head, 0))
		cur := w.Mov(w.Load(prev, 8))
		w.While(func() ir.Reg {
			nonNil := w.Cmp(ir.CmpNE, cur, w.C(0))
			stop := w.Mov(w.C(0))
			w.If(nonNil, func() {
				v := w.Load(cur, 0)
				w.MovTo(stop, w.Cmp(ir.CmpLT, v, target))
			}, nil)
			return stop
		}, func() {
			w.MovTo(prev, cur)
			w.MovTo(cur, w.Load(cur, 8))
		})
		w.If(insert, func() {
			node := w.MallocI(llNodeSize)
			w.Store(node, 0, target)
			w.Store(node, 8, cur)
			w.Store(node, 16, w.C(0))
			w.Store(prev, 8, node) // link in (publishes the node)
		}, func() {
			// Logical removal: mark the successor dead if it matches.
			found := w.Mov(w.C(0))
			nonNil := w.Cmp(ir.CmpNE, cur, w.C(0))
			w.If(nonNil, func() {
				v := w.Load(cur, 0)
				w.MovTo(found, w.Cmp(ir.CmpEQ, v, target))
			}, nil)
			w.If(found, func() {
				w.Store(cur, 16, w.C(1))
			}, nil)
		})
		w.TxEnd()
	})
	w.RetVoid()

	buildMain(b, int64(threads), func(m *fn) {
		// Build the initial sorted list: arena[i] holds value i*8, linked in
		// order; head points at a sentinel (arena[0] with value -1).
		arena := m.GlobalAddr("arena")
		hd := m.GlobalAddr("head")
		m.Store(hd, 0, arena)
		m.Store(arena, 0, m.C(-1))
		m.ForI(initial-1, func(i ir.Reg) {
			node := m.Idx(arena, i, llNodeSize)
			next := m.Idx(arena, m.AddI(i, 1), llNodeSize)
			m.Store(node, 8, next)
			m.Store(next, 0, m.MulI(m.AddI(i, 1), 8))
			m.Store(next, 8, m.C(0))
			m.Store(next, 16, m.C(0))
		})
	})
	return b.M
}
