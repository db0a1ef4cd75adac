// Package classify implements HinTM's static memory-access classification
// (paper §IV-A) over TIR modules. It plays the role of the paper's LLVM
// passes: using the alias and escape analyses it marks transactional loads
// and stores that can never participate in a race with the Safe flag (the
// load_word_safe / store_word_safe encodings), and replicates functions
// called with safe arguments so their accesses can be specialized without
// affecting unsafe callers.
//
// Marking rules (paper §III):
//
//   - a load is safe if every memory location it may target is a safe
//     location (thread-private, or shared read-only in the parallel region);
//   - a store is safe only if every target is thread-private AND the target
//     obeys the defined-before-used discipline within the enclosing
//     transaction (an "initializing" store), so an abort cannot leak
//     partially-updated state into the retry.
//
// The pass is deliberately conservative: unresolved provenance, mixed-safety
// target sets, and recursion all classify as unsafe, mirroring the paper's
// "conservatively classified as unsafe" rule.
package classify

import (
	"fmt"
	"sort"

	"hintm/internal/alias"
	"hintm/internal/cfg"
	"hintm/internal/escape"
	"hintm/internal/ir"
)

// Report summarizes what the pass did.
type Report struct {
	// TxLoads/TxStores count static memory instructions inside transaction
	// regions (including replicated clones, which only run inside TXs).
	TxLoads, TxStores int
	// SafeTxLoads/SafeTxStores count those marked safe.
	SafeTxLoads, SafeTxStores int
	// Replicated counts specialized function clones created.
	Replicated int
	// Clones lists the clone names, sorted.
	Clones []string
}

// String renders the report as hintm-sim prints it on its "compiler" line.
func (r *Report) String() string {
	return fmt.Sprintf(
		"tx loads: %d (%d safe)  tx stores: %d (%d safe)  clones: %d",
		r.TxLoads, r.SafeTxLoads, r.TxStores, r.SafeTxStores, r.Replicated)
}

type classifier struct {
	m   *ir.Module
	al  *alias.Analysis
	esc *escape.Result

	txRegions map[string]cfg.TxRegion
	summaries map[string]map[alias.ObjID]fa
	accessed  map[string]alias.ObjSet
	txBad     map[int]map[alias.ObjID]bool

	clones     map[string]string
	cloneCount int
	report     *Report
}

// Run performs static classification on m, mutating it in place (Safe flags
// set, clones added, transactional call sites retargeted), and returns a
// report. The module must verify.
func Run(m *ir.Module) (*Report, error) {
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("classify: %w", err)
	}
	cl := &classifier{
		m:         m,
		al:        alias.Analyze(m),
		txRegions: make(map[string]cfg.TxRegion),
		summaries: make(map[string]map[alias.ObjID]fa),
		accessed:  make(map[string]alias.ObjSet),
		txBad:     make(map[int]map[alias.ObjID]bool),
		clones:    make(map[string]string),
		report:    &Report{},
	}
	cl.esc = escape.Analyze(m, cl.al)

	for _, f := range m.Funcs {
		region, err := cfg.TxRegions(f)
		if err != nil {
			return nil, fmt.Errorf("classify: %w", err)
		}
		cl.txRegions[f.Name] = region
	}
	cl.computeSummaries()
	cl.mark()
	cl.count()
	sort.Strings(cl.report.Clones)
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("classify: post-pass verify: %w", err)
	}
	return cl.report, nil
}

// mark walks every transaction region, classifying memory instructions and
// replicating transactional callees. The functions slice is snapshotted so
// clones appended during the walk are not re-walked (they are marked inside
// replicate).
func (cl *classifier) mark() {
	funcs := append([]*ir.Func(nil), cl.m.Funcs...)
	for _, f := range funcs {
		region := cl.txRegions[f.Name]
		if len(region) == 0 {
			continue
		}
		f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
			txID, inTx := region[in]
			if !inTx {
				return
			}
			switch in.Op {
			case ir.OpLoad:
				in.Safe = cl.esc.AllSafe(cl.al.AccessedObjects(f, in))
			case ir.OpStore:
				in.Safe = cl.storeSafe(f, in, txID)
			case ir.OpCall:
				mask := cl.callMask(f, in, txID)
				in.Sym = cl.replicate(in.Sym, mask, 0)
			}
		})
	}
}

func (cl *classifier) storeSafe(f *ir.Func, in *ir.Instr, txID int) bool {
	objs := cl.al.AccessedObjects(f, in)
	if len(objs) == 0 {
		return false
	}
	for o := range objs {
		if !cl.esc.ThreadPrivate(o) || !cl.txInitSafe(txID, o) {
			return false
		}
	}
	return true
}

// callMask computes the replication context for a transactional call site.
func (cl *classifier) callMask(f *ir.Func, in *ir.Instr, txID int) ctxMask {
	var mask ctxMask
	for i, arg := range in.Args {
		if i >= 64 {
			break
		}
		pts := cl.al.PointsTo(f, arg)
		if len(pts) == 0 {
			// Scalar argument: it contributes no memory objects, so it is a
			// safe participant in callee address arithmetic (indices,
			// bounds). In this IR every pointer originates from an
			// allocation/global and carries points-to, so empty means
			// scalar.
			mask.load |= 1 << uint(i)
			mask.store |= 1 << uint(i)
			continue
		}
		loadOK, storeOK := true, true
		for o := range pts {
			if !cl.esc.SafeLocation(o) {
				loadOK = false
			}
			if !cl.esc.ThreadPrivate(o) || !cl.txInitSafe(txID, o) {
				storeOK = false
			}
		}
		if loadOK {
			mask.load |= 1 << uint(i)
		}
		if storeOK {
			mask.store |= 1 << uint(i)
		}
	}
	return mask
}

// count tallies report statistics: in-region accesses for original
// functions, all accesses for clones (which execute only inside TXs).
func (cl *classifier) count() {
	for _, f := range cl.m.Funcs {
		isClone := false
		for i := 0; i < len(f.Name); i++ {
			if f.Name[i] == '$' {
				isClone = true
				break
			}
		}
		if isClone {
			cl.report.Clones = append(cl.report.Clones, f.Name)
		}
		region := cl.txRegions[f.Name]
		f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
			if !in.IsMemAccess() {
				return
			}
			if !isClone {
				if _, inTx := region[in]; !inTx {
					return
				}
			}
			if in.Op == ir.OpLoad {
				cl.report.TxLoads++
				if in.Safe {
					cl.report.SafeTxLoads++
				}
			} else {
				cl.report.TxStores++
				if in.Safe {
					cl.report.SafeTxStores++
				}
			}
		})
	}
}
