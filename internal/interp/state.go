package interp

import (
	"fmt"

	"hintm/internal/ir"
	"hintm/internal/mem"
)

// Thread snapshot/fork support: a ThreadState is a deep, self-contained copy
// of one thread's architectural state — the frame stack with register files
// and PCs, and the PRNG cursor — taken between transactions. It extends the
// Checkpoint machinery (which snapshots the same state transiently, inside
// one thread, for abort rollback) into a durable form that outlives the
// capturing thread and can instantiate any number of independent new
// threads on the same Program. The snapshot/fork subsystem (internal/snap)
// uses it to resume sibling grid runs from a shared warm-up prefix.

// frameState is one captured activation record.
type frameState struct {
	df        *dfunc
	regs      []int64
	block, pc int
	stackBase mem.Addr
	retReg    ir.Reg
}

// ThreadState is a durable snapshot of a thread captured by CaptureState.
// It is immutable after capture and safe for concurrent NewThread calls.
type ThreadState struct {
	ID  int
	RNG uint64

	prog   *Program
	frames []frameState
}

// NextOp returns the opcode the thread will execute at its next Exec
// (ir.OpRet is returned for a Done thread, which cannot step). The prefix
// boundary scan uses it to stop the machine *before* an instruction class
// executes, so a resumed run re-executes the boundary instruction exactly
// as the cold run would have.
func (t *Thread) NextOp() ir.Op {
	if t.Done || len(t.Frames) == 0 {
		return ir.OpRet
	}
	f := t.Frames[len(t.Frames)-1]
	return f.code[f.PC].op
}

// CaptureState deep-copies the thread's architectural state. The thread
// must be quiescent with respect to transactions: capturing with a pending
// abort checkpoint (or inside a transaction or fallback section) would bake
// half a transaction into every fork, so it panics — the caller declares
// boundaries only where this cannot hold.
func (t *Thread) CaptureState() *ThreadState {
	if t.checkpoint != nil || t.InTx || t.Fallback {
		panic("interp: CaptureState inside a transaction")
	}
	st := &ThreadState{ID: t.ID, RNG: t.RNG, prog: t.Prog, frames: make([]frameState, len(t.Frames))}
	for i, f := range t.Frames {
		st.frames[i] = frameState{
			df:        f.df,
			regs:      append([]int64(nil), f.Regs...),
			block:     f.Block,
			pc:        f.PC,
			stackBase: f.StackBase,
			retReg:    f.RetReg,
		}
	}
	return st
}

// NewThread instantiates an independent thread resuming from the snapshot.
// Each call allocates fresh frames and register files, so any number of
// forks execute without aliasing each other (or the snapshot). The thread
// must run against the same Program the snapshot was captured from — the
// captured frames reference its decoded code.
func (st *ThreadState) NewThread(p *Program) *Thread {
	if p != st.prog {
		panic(fmt.Sprintf("interp: ThreadState for thread %d restored onto a different Program", st.ID))
	}
	t := &Thread{ID: st.ID, Prog: p, RNG: st.RNG, Frames: make([]*Frame, len(st.frames))}
	for i, fs := range st.frames {
		t.Frames[i] = &Frame{
			Fn:        fs.df.fn,
			Regs:      append([]int64(nil), fs.regs...),
			Block:     fs.block,
			PC:        fs.pc,
			StackBase: fs.stackBase,
			RetReg:    fs.retReg,
			df:        fs.df,
			code:      fs.df.blocks[fs.block],
		}
	}
	return t
}
