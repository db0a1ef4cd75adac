// Package escape computes, on top of the alias analysis, the object-level
// sharing facts HinTM's static classification needs (paper §IV-A and
// Algorithm 1):
//
//   - which abstract objects are reachable from shared roots (globals and
//     Parallel arguments) through the heap graph — candidates for
//     inter-thread sharing;
//   - which objects may be written inside the parallel region;
//   - which malloc sites are freed within the parallel region (Algorithm 1's
//     de-allocation criterion);
//   - hence which objects are thread-private and which are read-only shared,
//     the two classes of safe memory locations.
package escape

import (
	"hintm/internal/alias"
	"hintm/internal/ir"
)

// Result holds per-object sharing facts for one module.
type Result struct {
	A *alias.Analysis

	// ParallelFuncs is the set of functions reachable from any thread body
	// (the multithreaded region's code).
	ParallelFuncs map[string]bool

	// SharedReach marks objects reachable from shared roots.
	SharedReach map[alias.ObjID]bool
	// WrittenInParallel marks objects that some store inside the parallel
	// region may target.
	WrittenInParallel map[alias.ObjID]bool
	// FreedInRegion marks malloc objects freed inside the parallel region.
	FreedInRegion map[alias.ObjID]bool
	// AllocatedInRegion marks alloca/malloc objects whose allocation site is
	// inside the parallel region.
	AllocatedInRegion map[alias.ObjID]bool
}

// Analyze derives sharing facts from the module and its alias analysis.
func Analyze(m *ir.Module, a *alias.Analysis) *Result {
	r := &Result{
		A:                 a,
		ParallelFuncs:     parallelFuncs(m),
		SharedReach:       make(map[alias.ObjID]bool),
		WrittenInParallel: make(map[alias.ObjID]bool),
		FreedInRegion:     make(map[alias.ObjID]bool),
		AllocatedInRegion: make(map[alias.ObjID]bool),
	}
	r.computeSharedReach(m)
	r.scanParallelRegion(m)
	return r
}

// parallelFuncs returns every function reachable through calls from any
// thread-body function.
func parallelFuncs(m *ir.Module) map[string]bool {
	reach := make(map[string]bool)
	var visit func(name string)
	visit = func(name string) {
		if reach[name] {
			return
		}
		f := m.Func(name)
		if f == nil {
			return
		}
		reach[name] = true
		f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
			if in.Op == ir.OpCall {
				visit(in.Sym)
			}
		})
	}
	for _, f := range m.Funcs {
		if f.ThreadBody {
			visit(f.Name)
		}
	}
	return reach
}

// computeSharedReach seeds shared roots — every global object plus every
// object passed to a Parallel as a shared argument — and closes over the
// heap contents graph.
func (r *Result) computeSharedReach(m *ir.Module) {
	var work []alias.ObjID
	seed := func(o alias.ObjID) {
		if !r.SharedReach[o] {
			r.SharedReach[o] = true
			work = append(work, o)
		}
	}
	for _, g := range m.Globals {
		if id, ok := r.A.ObjectForGlobal(g.Name); ok {
			seed(id)
		}
	}
	m.ForEachInstr(func(f *ir.Func, _ *ir.Block, in *ir.Instr) {
		if in.Op != ir.OpParallel {
			return
		}
		for _, arg := range in.Args {
			for o := range r.A.PointsTo(f, arg) {
				seed(o)
			}
		}
	})
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		for inner := range r.A.Contents(o) {
			seed(inner)
		}
	}
}

// scanParallelRegion records write and free and allocation facts for code
// inside the parallel region.
func (r *Result) scanParallelRegion(m *ir.Module) {
	for _, f := range m.Funcs {
		if !r.ParallelFuncs[f.Name] {
			continue
		}
		f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
			switch in.Op {
			case ir.OpStore:
				for o := range r.A.AccessedObjects(f, in) {
					r.WrittenInParallel[o] = true
				}
			case ir.OpFree:
				for o := range r.A.PointsTo(f, in.A) {
					if r.A.Object(o).Kind == alias.ObjMalloc {
						r.FreedInRegion[o] = true
					}
				}
			case ir.OpAlloca, ir.OpMalloc:
				if id, ok := r.A.ObjectForInstr(in.ID); ok {
					r.AllocatedInRegion[id] = true
				}
			}
		})
	}
}

// ThreadPrivate reports whether object o is provably private to one thread:
// allocated inside the parallel region, never reachable from shared roots,
// and (for heap objects, per Algorithm 1) freed within the region.
func (r *Result) ThreadPrivate(o alias.ObjID) bool {
	if r.SharedReach[o] || !r.AllocatedInRegion[o] {
		return false
	}
	obj := r.A.Object(o)
	switch obj.Kind {
	case alias.ObjAlloca:
		return true
	case alias.ObjMalloc:
		return r.FreedInRegion[o]
	}
	return false
}

// ReadOnlyShared reports whether o may be shared but is never written inside
// the parallel region, making loads from it safe.
func (r *Result) ReadOnlyShared(o alias.ObjID) bool {
	return r.SharedReach[o] && !r.WrittenInParallel[o]
}

// SafeLocation reports whether o satisfies the paper's §III definition of a
// safe memory location.
func (r *Result) SafeLocation(o alias.ObjID) bool {
	return r.ThreadPrivate(o) || r.ReadOnlyShared(o)
}

// AllSafe reports whether every object in the set is a safe location and the
// set is non-empty (an empty set means unresolved provenance — conservative
// unsafe).
func (r *Result) AllSafe(objs alias.ObjSet) bool {
	if len(objs) == 0 {
		return false
	}
	for o := range objs {
		if !r.SafeLocation(o) {
			return false
		}
	}
	return true
}
