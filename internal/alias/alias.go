// Package alias implements an inclusion-based (Andersen-style),
// field-insensitive, context-insensitive points-to analysis over TIR
// modules. It underpins HinTM's static classification the way the paper's
// "pointer alias analysis pass" underpins its LLVM passes: every memory
// instruction's address register resolves to a set of abstract objects
// (allocation sites), over which escape and safety properties are computed.
package alias

import (
	"fmt"
	"sort"

	"hintm/internal/ir"
)

// ObjKind distinguishes abstract object classes.
type ObjKind uint8

// Abstract object kinds.
const (
	ObjGlobal ObjKind = iota
	ObjAlloca
	ObjMalloc
)

func (k ObjKind) String() string {
	switch k {
	case ObjGlobal:
		return "global"
	case ObjAlloca:
		return "alloca"
	case ObjMalloc:
		return "malloc"
	}
	return "?"
}

// ObjID indexes an abstract object within an Analysis.
type ObjID int

// Object is one abstract allocation site.
type Object struct {
	ID   ObjID
	Kind ObjKind
	// Sym is the global name for ObjGlobal objects.
	Sym string
	// Func is the containing function for alloca/malloc sites.
	Func string
	// InstrID is the allocation instruction's module-unique id.
	InstrID int
}

// String renders a diagnostic label.
func (o *Object) String() string {
	if o.Kind == ObjGlobal {
		return "@" + o.Sym
	}
	return fmt.Sprintf("%s#%d(%s)", o.Kind, o.InstrID, o.Func)
}

// ObjSet is a set of abstract objects.
type ObjSet map[ObjID]struct{}

func (s ObjSet) add(o ObjID) bool {
	if _, ok := s[o]; ok {
		return false
	}
	s[o] = struct{}{}
	return true
}

// Has reports membership.
func (s ObjSet) Has(o ObjID) bool { _, ok := s[o]; return ok }

// Sorted returns the set's members in increasing order.
func (s ObjSet) Sorted() []ObjID {
	out := make([]ObjID, 0, len(s))
	for o := range s {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// node is a constraint-graph variable (a register, a function's return
// value, or an object's contents).
type node int

// Analysis holds the points-to results for one module.
type Analysis struct {
	M       *ir.Module
	objects []*Object

	// node numbering
	regNode  map[string]map[ir.Reg]node // func -> reg -> node
	retNode  map[string]node
	contNode map[ObjID]node
	numNodes int

	pts   []ObjSet // per node
	succs [][]node // copy edges: pts(dst) ⊇ pts(src) => succs[src] contains dst

	// deferred load/store constraints, re-fired as pts sets grow
	loads  []complexCon // dst ⊇ contents(*a)
	stores []complexCon // contents(*a) ⊇ src

	objByInstr map[int]ObjID
	objBySym   map[string]ObjID
}

type complexCon struct {
	addr  node // the pointer node
	other node // dst (load) or src (store)
}

// Analyze runs the analysis to a fixed point.
func Analyze(m *ir.Module) *Analysis {
	a := &Analysis{
		M:          m,
		regNode:    make(map[string]map[ir.Reg]node),
		retNode:    make(map[string]node),
		contNode:   make(map[ObjID]node),
		objByInstr: make(map[int]ObjID),
		objBySym:   make(map[string]ObjID),
	}
	a.collectObjects()
	a.buildConstraints()
	a.solve()
	return a
}

func (a *Analysis) newNode() node {
	n := node(a.numNodes)
	a.numNodes++
	a.pts = append(a.pts, make(ObjSet))
	a.succs = append(a.succs, nil)
	return n
}

func (a *Analysis) reg(f *ir.Func, r ir.Reg) node {
	regs := a.regNode[f.Name]
	if regs == nil {
		regs = make(map[ir.Reg]node)
		a.regNode[f.Name] = regs
	}
	n, ok := regs[r]
	if !ok {
		n = a.newNode()
		regs[r] = n
	}
	return n
}

func (a *Analysis) ret(fname string) node {
	n, ok := a.retNode[fname]
	if !ok {
		n = a.newNode()
		a.retNode[fname] = n
	}
	return n
}

func (a *Analysis) contents(o ObjID) node {
	n, ok := a.contNode[o]
	if !ok {
		n = a.newNode()
		a.contNode[o] = n
	}
	return n
}

func (a *Analysis) addObject(o *Object) ObjID {
	o.ID = ObjID(len(a.objects))
	a.objects = append(a.objects, o)
	return o.ID
}

func (a *Analysis) collectObjects() {
	for _, g := range a.M.Globals {
		id := a.addObject(&Object{Kind: ObjGlobal, Sym: g.Name})
		a.objBySym[g.Name] = id
	}
	a.M.ForEachInstr(func(f *ir.Func, _ *ir.Block, in *ir.Instr) {
		switch in.Op {
		case ir.OpAlloca:
			a.objByInstr[in.ID] = a.addObject(&Object{Kind: ObjAlloca, Func: f.Name, InstrID: in.ID})
		case ir.OpMalloc:
			a.objByInstr[in.ID] = a.addObject(&Object{Kind: ObjMalloc, Func: f.Name, InstrID: in.ID})
		}
	})
}

// copyEdge records pts(dst) ⊇ pts(src).
func (a *Analysis) copyEdge(dst, src node) {
	a.succs[src] = append(a.succs[src], dst)
}

func (a *Analysis) buildConstraints() {
	a.M.ForEachInstr(func(f *ir.Func, _ *ir.Block, in *ir.Instr) {
		switch in.Op {
		case ir.OpGlobalAddr:
			a.pts[a.reg(f, in.Dst)].add(a.objBySym[in.Sym])
		case ir.OpAlloca, ir.OpMalloc:
			a.pts[a.reg(f, in.Dst)].add(a.objByInstr[in.ID])
		case ir.OpMov:
			a.copyEdge(a.reg(f, in.Dst), a.reg(f, in.A))
		case ir.OpBin:
			// Pointer arithmetic: the result may point wherever either
			// operand points.
			a.copyEdge(a.reg(f, in.Dst), a.reg(f, in.A))
			a.copyEdge(a.reg(f, in.Dst), a.reg(f, in.B))
		case ir.OpLoad:
			a.loads = append(a.loads, complexCon{
				addr: a.reg(f, in.A), other: a.reg(f, in.Dst)})
		case ir.OpStore:
			a.stores = append(a.stores, complexCon{
				addr: a.reg(f, in.A), other: a.reg(f, in.B)})
		case ir.OpCall:
			callee := a.M.Func(in.Sym)
			if callee == nil {
				return
			}
			for i, arg := range in.Args {
				a.copyEdge(a.reg(callee, callee.Params[i]), a.reg(f, arg))
			}
			if in.Dst != ir.NoReg {
				a.copyEdge(a.reg(f, in.Dst), a.ret(in.Sym))
			}
		case ir.OpRet:
			if in.A != ir.NoReg {
				a.copyEdge(a.ret(f.Name), a.reg(f, in.A))
			}
		case ir.OpParallel:
			body := a.M.Func(in.Sym)
			if body == nil {
				return
			}
			for i, arg := range in.Args {
				// Params[0] is the tid; shared args bind from Params[1].
				a.copyEdge(a.reg(body, body.Params[i+1]), a.reg(f, arg))
			}
		}
	})
}

func (a *Analysis) solve() {
	changed := true
	for changed {
		changed = false
		// Propagate along copy edges to fixpoint.
		prop := true
		for prop {
			prop = false
			for src := 0; src < a.numNodes; src++ {
				set := a.pts[src]
				if len(set) == 0 {
					continue
				}
				for _, dst := range a.succs[src] {
					for o := range set {
						if a.pts[dst].add(o) {
							prop = true
						}
					}
				}
			}
		}
		// Expand load/store constraints into new copy edges.
		for _, lc := range a.loads {
			for o := range a.pts[lc.addr] {
				if a.ensureEdge(a.contents(o), lc.other, true) {
					changed = true
				}
			}
		}
		for _, sc := range a.stores {
			for o := range a.pts[sc.addr] {
				if a.ensureEdge(sc.other, a.contents(o), false) {
					changed = true
				}
			}
		}
	}
}

// ensureEdge adds a copy edge (from→to for loads means contents→dst;
// for stores src→contents) if absent. The fromIsContents flag only
// disambiguates the argument order at call sites for readability.
func (a *Analysis) ensureEdge(from, to node, fromIsContents bool) bool {
	_ = fromIsContents
	for _, existing := range a.succs[from] {
		if existing == to {
			return false
		}
	}
	a.succs[from] = append(a.succs[from], to)
	// Seed immediate propagation so the outer loop converges.
	grew := false
	for o := range a.pts[from] {
		if a.pts[to].add(o) {
			grew = true
		}
	}
	return grew || len(a.pts[from]) > 0
}

// PointsTo returns the object set register r may point to in f.
func (a *Analysis) PointsTo(f *ir.Func, r ir.Reg) ObjSet {
	regs := a.regNode[f.Name]
	if regs == nil {
		return nil
	}
	n, ok := regs[r]
	if !ok {
		return nil
	}
	return a.pts[n]
}

// Contents returns the objects that pointers stored inside o may target.
func (a *Analysis) Contents(o ObjID) ObjSet {
	n, ok := a.contNode[o]
	if !ok {
		return nil
	}
	return a.pts[n]
}

// Object returns the object record for id.
func (a *Analysis) Object(id ObjID) *Object { return a.objects[id] }

// ObjectForInstr returns the abstract object allocated by the given
// Alloca/Malloc instruction id, if any.
func (a *Analysis) ObjectForInstr(instrID int) (ObjID, bool) {
	o, ok := a.objByInstr[instrID]
	return o, ok
}

// ObjectForGlobal returns the abstract object of global sym, if any.
func (a *Analysis) ObjectForGlobal(sym string) (ObjID, bool) {
	o, ok := a.objBySym[sym]
	return o, ok
}

// AccessedObjects returns the object set a memory instruction may touch,
// i.e. the points-to set of its address register.
func (a *Analysis) AccessedObjects(f *ir.Func, in *ir.Instr) ObjSet {
	if !in.IsMemAccess() {
		return nil
	}
	return a.PointsTo(f, in.A)
}
