// Package workloads provides the transactional benchmark kernels the paper
// evaluates (§V): the eight STAMP applications (bayes, genome, intruder,
// kmeans, labyrinth, ssca2, vacation, yada) and TPC-C's new_order and
// payment queries, re-implemented as TIR programs whose sharing structure,
// transaction footprints, and abort behaviour reproduce the characteristics
// the paper's evaluation attributes to each application.
//
// These are structurally matched kernels, not line-by-line ports: each one
// preserves the property that drives its row in the paper's figures — e.g.
// labyrinth's per-transaction thread-private grid copy (huge statically-safe
// footprint), vacation's read-mostly shared tables on read-write pages,
// kmeans/ssca2's tiny transactions, tpcc-p's conflict-dominated hot rows.
package workloads

import (
	"fmt"

	"hintm/internal/ir"
)

// Scale selects input sizes: Small for unit tests, Medium for the paper's
// P8 experiments, Large for the capacity-pressure studies (P8S, L1TM).
type Scale uint8

// Input scales.
const (
	Small Scale = iota
	Medium
	Large
)

func (s Scale) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	}
	return fmt.Sprintf("scale(%d)", uint8(s))
}

// ParseScale parses the command-line spelling of an input scale
// ("small", "medium", "large").
func ParseScale(s string) (Scale, error) {
	switch s {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "large":
		return Large, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want small|medium|large)", s)
}

// pick returns the scale-matched value.
func (s Scale) pick(small, medium, large int64) int64 {
	switch s {
	case Small:
		return small
	case Large:
		return large
	default:
		return medium
	}
}

// fn wraps a FuncBuilder with structured-control-flow helpers and fresh
// label generation, so kernels read like the C they stand in for.
type fn struct {
	*ir.FuncBuilder
	labels int
}

func newFn(fb *ir.FuncBuilder) *fn { return &fn{FuncBuilder: fb} }

func (f *fn) blk(prefix string) *ir.Block {
	f.labels++
	return f.NewBlock(fmt.Sprintf("%s_%d", prefix, f.labels))
}

// For emits `for i := 0; i < bound; i++ { body(i) }`.
func (f *fn) For(bound ir.Reg, body func(i ir.Reg)) {
	i := f.C(0)
	head := f.blk("for")
	bodyB := f.blk("body")
	done := f.blk("done")
	f.Br(head)
	f.SetBlock(head)
	c := f.Cmp(ir.CmpLT, i, bound)
	f.CondBr(c, bodyB, done)
	f.SetBlock(bodyB)
	body(i)
	f.MovTo(i, f.AddI(i, 1))
	f.Br(head)
	f.SetBlock(done)
}

// ForI is For with a constant bound.
func (f *fn) ForI(bound int64, body func(i ir.Reg)) { f.For(f.C(bound), body) }

// DoFor emits a rotated (do-while) counted loop: the body always executes at
// least once, as a compiler's loop rotation would produce for a loop whose
// bound is known positive. The rotation matters to the static classifier:
// a defining store inside a DoFor provably executes on every path, so the
// must-stored dataflow can prove initialization (e.g. labyrinth's
// grid_copy).
func (f *fn) DoFor(bound ir.Reg, body func(i ir.Reg)) {
	i := f.C(0)
	bodyB := f.blk("dobody")
	done := f.blk("dodone")
	f.Br(bodyB)
	f.SetBlock(bodyB)
	body(i)
	f.MovTo(i, f.AddI(i, 1))
	c := f.Cmp(ir.CmpLT, i, bound)
	f.CondBr(c, bodyB, done)
	f.SetBlock(done)
}

// If emits `if cond != 0 { then() } else { els() }`; els may be nil.
func (f *fn) If(cond ir.Reg, then func(), els func()) {
	thenB := f.blk("then")
	var elsB *ir.Block
	done := f.blk("endif")
	if els != nil {
		elsB = f.blk("else")
		f.CondBr(cond, thenB, elsB)
	} else {
		f.CondBr(cond, thenB, done)
	}
	f.SetBlock(thenB)
	then()
	f.Br(done)
	if els != nil {
		f.SetBlock(elsB)
		els()
		f.Br(done)
	}
	f.SetBlock(done)
}

// While emits `for cond() != 0 { body() }`; cond is re-evaluated each
// iteration at the loop head.
func (f *fn) While(cond func() ir.Reg, body func()) {
	head := f.blk("while")
	bodyB := f.blk("wbody")
	done := f.blk("wdone")
	f.Br(head)
	f.SetBlock(head)
	c := cond()
	f.CondBr(c, bodyB, done)
	f.SetBlock(bodyB)
	body()
	f.Br(head)
	f.SetBlock(done)
}

// Idx computes base + i*stride (bytes).
func (f *fn) Idx(base, i ir.Reg, stride int64) ir.Reg {
	return f.Add(base, f.MulI(i, stride))
}

// LoadIdx loads word base[i] with the given byte stride.
func (f *fn) LoadIdx(base, i ir.Reg, stride int64) ir.Reg {
	return f.Load(f.Idx(base, i, stride), 0)
}

// StoreIdx stores word base[i] = v with the given byte stride.
func (f *fn) StoreIdx(base, i ir.Reg, stride int64, v ir.Reg) {
	f.Store(f.Idx(base, i, stride), 0, v)
}

// Hash emits a cheap integer mix of v modulo bound.
func (f *fn) Hash(v ir.Reg, bound int64) ir.Reg {
	x := f.Mul(v, f.C(0x9E3779B1))
	x = f.Bin(ir.BinShr, x, f.C(7))
	x = f.Xor(x, v)
	return f.Mod(x, f.C(bound))
}

// buildMain emits the conventional main: optional setup, then one parallel
// region of `threads` workers, then optional teardown.
func buildMain(b *ir.Builder, threads int64, setup func(m *fn), workerArgs ...ir.Reg) {
	mfb := b.Function("main", 0)
	m := newFn(mfb)
	if setup != nil {
		setup(m)
	}
	n := m.C(threads)
	m.Parallel(n, "worker", workerArgs...)
	m.RetVoid()
}
