// Package interp executes TIR programs one instruction at a time, under the
// control of a simulation environment (internal/sim). The interpreter owns
// architectural state — frames, registers, program counters, the per-thread
// PRNG — and delegates every memory-system effect (loads, stores,
// allocation, transactions, thread forking) to an Env. Transactional
// rollback is precise: TxBegin captures a checkpoint of the whole frame
// stack, and an abort restores it, resuming execution at the TxBegin so the
// environment can re-decide retry/fallback policy.
//
// The hot loop is allocation-free: NewProgram pre-decodes every instruction
// into a dense dispatch form (branch targets and callees resolved to
// indices/pointers, no map lookups in Exec), and frames, register files, and
// checkpoints are pooled per thread so calls and Capture/Restore reuse
// storage across transaction attempts.
package interp

import (
	"fmt"

	"hintm/internal/ir"
	"hintm/internal/mem"
)

// Ctrl is the environment's verdict on an instruction's side effect.
type Ctrl uint8

// Control outcomes.
const (
	// CtrlOK: effect performed; advance.
	CtrlOK Ctrl = iota
	// CtrlAbort: the thread's transaction aborted and its checkpoint was
	// restored; do not advance (the PC now sits at the TxBegin).
	CtrlAbort
	// CtrlStall: the effect cannot proceed yet (fallback lock wait,
	// barrier); retry the same instruction later.
	CtrlStall
)

// Env is the simulation environment the interpreter runs against.
type Env interface {
	// Load/Store perform one word access with its static safety hint.
	Load(t *Thread, addr mem.Addr, safe bool) (int64, Ctrl)
	Store(t *Thread, addr mem.Addr, val int64, safe bool) Ctrl
	// Malloc/Free manage simulated heap memory for the thread.
	Malloc(t *Thread, size int64) mem.Addr
	Free(t *Thread, addr mem.Addr, size int64)
	// StackAlloc/StackRelease manage the thread's frame storage.
	StackAlloc(t *Thread, words int64) mem.Addr
	StackRelease(t *Thread, base mem.Addr)
	// TxBegin is consulted every time the PC reaches a TxBegin — including
	// after an abort — and decides whether the thread enters (or re-enters)
	// a transaction now.
	TxBegin(t *Thread) Ctrl
	// TxEnd commits (or, under fallback, releases the lock).
	TxEnd(t *Thread) Ctrl
	// Parallel forks n threads of fn(tid, args...); it stalls the caller
	// until all children finish, then returns CtrlOK exactly once.
	Parallel(t *Thread, n int64, fn string, args []int64) Ctrl
	// AbortHint requests an explicit abort when cond != 0.
	AbortHint(t *Thread, cond int64) Ctrl
}

// dinstr is one pre-decoded instruction: branch targets resolved to block
// indices, callees and globals to side-table indices, so Exec dispatches
// with array indexing only. The struct is kept to 32 bytes (half a cache
// line) — per-op cold payloads (call sites, parallel sites) live in dfunc
// side tables reached through aux.
//
// Field use by op: aux is the target block (Br, CondBr — else target in
// imm), the global slot (GlobalAddr), or the side-table index (Call,
// Parallel). imm is the literal (Const), the byte offset (Load/Store), the
// pre-scaled byte size (Alloca), or the else-block index (CondBr).
type dinstr struct {
	op        ir.Op
	safe      bool
	bin       ir.BinKind
	pred      ir.CmpKind
	dst, a, b ir.Reg
	aux       int32
	imm       int64
}

// callSite is the cold payload of one OpCall instruction.
type callSite struct {
	callee *dfunc
	args   []ir.Reg
}

// parSite is the cold payload of one OpParallel instruction.
type parSite struct {
	sym  string
	args []ir.Reg
}

// dfunc is a function's decoded body.
type dfunc struct {
	fn     *ir.Func
	blocks [][]dinstr
	calls  []callSite
	pars   []parSite
}

// Program wraps a verified module with its pre-decoded executable form.
type Program struct {
	M *ir.Module

	dfuncs map[string]*dfunc
	// globalAddrs is the laid-out address per module global, in
	// Module.Globals order; globalsLaid flips when LayoutGlobals ran.
	globalAddrs []mem.Addr
	globalsLaid bool
}

// NewProgram prepares m for execution. The module must verify.
func NewProgram(m *ir.Module) (*Program, error) {
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("interp: %w", err)
	}
	p := &Program{
		M:           m,
		dfuncs:      make(map[string]*dfunc, len(m.Funcs)),
		globalAddrs: make([]mem.Addr, len(m.Globals)),
	}
	globalIdx := make(map[string]int32, len(m.Globals))
	for i, g := range m.Globals {
		globalIdx[g.Name] = int32(i)
	}
	// Two passes: allocate every dfunc first so call sites can resolve
	// callees (including recursion and forward references).
	for _, f := range m.Funcs {
		p.dfuncs[f.Name] = &dfunc{
			fn:     f,
			blocks: make([][]dinstr, len(f.Blocks)),
		}
	}
	for _, f := range m.Funcs {
		df := p.dfuncs[f.Name]
		blockIdx := make(map[string]int32, len(f.Blocks))
		for i, b := range f.Blocks {
			blockIdx[b.Name] = int32(i)
		}
		for bi, b := range f.Blocks {
			code := make([]dinstr, len(b.Instrs))
			for ii, in := range b.Instrs {
				d := dinstr{
					op:   in.Op,
					safe: in.Safe,
					bin:  in.Bin,
					pred: in.Pred,
					dst:  in.Dst,
					a:    in.A,
					b:    in.B,
					imm:  in.Imm,
				}
				switch in.Op {
				case ir.OpBr:
					d.aux = blockIdx[in.Then]
				case ir.OpCondBr:
					d.aux = blockIdx[in.Then]
					d.imm = int64(blockIdx[in.Else])
				case ir.OpCall:
					callee := p.dfuncs[in.Sym]
					if callee == nil {
						return nil, fmt.Errorf("interp: call to unknown function %s", in.Sym)
					}
					d.aux = int32(len(df.calls))
					df.calls = append(df.calls, callSite{callee: callee, args: in.Args})
				case ir.OpParallel:
					d.aux = int32(len(df.pars))
					df.pars = append(df.pars, parSite{sym: in.Sym, args: in.Args})
				case ir.OpGlobalAddr:
					gi, ok := globalIdx[in.Sym]
					if !ok {
						return nil, fmt.Errorf("interp: reference to unknown global %s", in.Sym)
					}
					d.aux = gi
				case ir.OpAlloca:
					// Fold the word offset into a byte offset once.
					d.imm = in.Imm * mem.WordSize
				}
				code[ii] = d
			}
			df.blocks[bi] = code
		}
	}
	return p, nil
}

// Frame is one activation record.
type Frame struct {
	Fn    *ir.Func
	Regs  []int64
	Block int // index into Fn.Blocks
	PC    int // index into current block's Instrs
	// StackBase is the frame's alloca storage base address.
	StackBase mem.Addr
	// RetReg is the caller register receiving this frame's return value.
	RetReg ir.Reg

	df *dfunc
	// code caches df.blocks[Block] so the fetch is one indexed load;
	// maintained at every block transfer (call entry, Br, CondBr).
	code []dinstr
}

// Checkpoint is the architectural state snapshot TxBegin captures.
type Checkpoint struct {
	Frames []*Frame
	RNG    uint64
	// StackTop is the thread's stack cursor at capture; the machine
	// restores the allocator to it on abort.
	StackTop mem.Addr
}

// Thread is one simulated software thread.
type Thread struct {
	ID   int
	Prog *Program

	Frames []*Frame
	RNG    uint64
	InTx   bool
	// Fallback reports the thread is executing its critical section under
	// the global fallback lock rather than in HTM mode.
	Fallback bool
	Done     bool

	checkpoint *Checkpoint
	// cpSpare is the recycled Checkpoint (with its Frames backing array)
	// the next Capture reuses; framePool recycles Frame+Regs storage from
	// returns, aborts, and superseded checkpoints.
	cpSpare   *Checkpoint
	framePool []*Frame
	// parArgs is the reused argument buffer for OpParallel.
	parArgs []int64
}

// Where describes the thread's current position as "fn/block:pc" for
// diagnostic snapshots (watchdog reports, livelock dumps).
func (t *Thread) Where() string {
	if t.Done {
		return "done"
	}
	if len(t.Frames) == 0 {
		return "no-frame"
	}
	f := t.Frames[len(t.Frames)-1]
	if f.Block < 0 || f.Block >= len(f.Fn.Blocks) {
		return fmt.Sprintf("%s/block%d:%d", f.Fn.Name, f.Block, f.PC)
	}
	return fmt.Sprintf("%s/%s:%d", f.Fn.Name, f.Fn.Blocks[f.Block].Name, f.PC)
}

// takeFrame returns a pooled (or new) frame with a register file of exactly
// nregs zeroed words.
func (t *Thread) takeFrame(nregs int) *Frame {
	var f *Frame
	if n := len(t.framePool); n > 0 {
		f = t.framePool[n-1]
		t.framePool[n-1] = nil
		t.framePool = t.framePool[:n-1]
	} else {
		f = &Frame{}
	}
	if cap(f.Regs) < nregs {
		f.Regs = make([]int64, nregs)
	} else {
		f.Regs = f.Regs[:nregs]
		for i := range f.Regs {
			f.Regs[i] = 0
		}
	}
	return f
}

func (t *Thread) releaseFrame(f *Frame) {
	t.framePool = append(t.framePool, f)
}

// NewThread prepares a thread executing fn(args...). The environment must
// have been consulted for the entry frame's stack storage.
func (p *Program) NewThread(id int, fn string, args []int64, stackBase mem.Addr, seed uint64) *Thread {
	df := p.dfuncs[fn]
	if df == nil {
		panic("interp: unknown function " + fn)
	}
	f := df.fn
	if len(args) != len(f.Params) {
		panic(fmt.Sprintf("interp: %s wants %d args, got %d", fn, len(f.Params), len(args)))
	}
	fr := &Frame{Fn: f, Regs: make([]int64, f.NumRegs), StackBase: stackBase, RetReg: ir.NoReg, df: df, code: df.blocks[0]}
	for i, a := range args {
		fr.Regs[f.Params[i]] = a
	}
	return &Thread{
		ID:     id,
		Prog:   p,
		Frames: []*Frame{fr},
		RNG:    seed*0x9E3779B97F4A7C15 + uint64(id)*0xBF58476D1CE4E5B9 + 1,
	}
}

// Top returns the active frame.
func (t *Thread) Top() *Frame { return t.Frames[len(t.Frames)-1] }

// Capture snapshots the thread's architectural state with the PC at the
// current instruction (called by the environment at TxBegin, before the
// transaction is entered). Checkpoint and frame storage is recycled from
// the previous capture, so steady-state retry loops allocate nothing.
func (t *Thread) Capture(stackTop mem.Addr) {
	if old := t.checkpoint; old != nil {
		// The previous transaction committed without consuming its
		// checkpoint; recycle it.
		t.recycleCheckpoint(old)
	}
	cp := t.cpSpare
	if cp == nil {
		cp = &Checkpoint{}
	}
	t.cpSpare = nil
	cp.RNG = t.RNG
	cp.StackTop = stackTop
	cp.Frames = cp.Frames[:0]
	for _, f := range t.Frames {
		nf := t.takeFrame(len(f.Regs))
		regs := nf.Regs
		*nf = *f
		nf.Regs = regs
		copy(nf.Regs, f.Regs)
		cp.Frames = append(cp.Frames, nf)
	}
	t.checkpoint = cp
}

// recycleCheckpoint returns cp's frames to the pool and keeps the struct
// (with its Frames backing array) for the next Capture.
func (t *Thread) recycleCheckpoint(cp *Checkpoint) {
	for i, f := range cp.Frames {
		t.releaseFrame(f)
		cp.Frames[i] = nil
	}
	cp.Frames = cp.Frames[:0]
	t.checkpoint = nil
	if t.cpSpare == nil {
		t.cpSpare = cp
	}
}

// Restore rolls architectural state back to the checkpoint and returns it
// (so the environment can restore the stack allocator); the checkpoint is
// consumed — the re-executed TxBegin captures a fresh one. The returned
// Checkpoint's Frames are no longer valid: the restored frames become the
// thread's live stack, and the aborted attempt's frames are recycled.
func (t *Thread) Restore() *Checkpoint {
	cp := t.checkpoint
	if cp == nil {
		panic("interp: restore without checkpoint")
	}
	oldLive := t.Frames
	t.Frames = cp.Frames
	t.RNG = cp.RNG
	t.InTx = false
	t.Fallback = false
	t.checkpoint = nil
	// Double-buffer swap: the aborted attempt's frames go back to the pool,
	// and their slice becomes the spare checkpoint's Frames storage.
	for i, f := range oldLive {
		t.releaseFrame(f)
		oldLive[i] = nil
	}
	cp.Frames = oldLive[:0]
	if t.cpSpare == nil {
		t.cpSpare = cp
	}
	return cp
}

// randBounded draws the next pseudo-random value in [0, bound) from the
// thread's xorshift stream (deterministic per thread and seed).
func (t *Thread) randBounded(bound int64) int64 {
	x := t.RNG
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	t.RNG = x
	if bound <= 0 {
		return 0
	}
	return int64(x % uint64(bound))
}

// localOp marks the thread-local opcodes: each reads and writes only the
// executing thread's registers, frames, PC, PRNG and stack cursor, never
// memory, another thread, or the environment's shared state.
var localOp = [256]bool{
	ir.OpConst: true, ir.OpMov: true, ir.OpBin: true, ir.OpCmp: true,
	ir.OpAlloca: true, ir.OpGlobalAddr: true, ir.OpCall: true, ir.OpRet: true,
	ir.OpBr: true, ir.OpCondBr: true, ir.OpRand: true,
}

// Exec executes t's next instruction, whatever its op, then continues
// through the thread-local instructions that follow (see localOp) until the
// next instruction of any other kind, the thread's completion, or n == max.
// It returns how many instructions it executed and whether the last one
// completed (PC advanced or control transferred) rather than stalled or
// aborted: a first instruction that stalled or aborted returns (1, false)
// with the PC where it was, and a Done thread (0, false).
//
// After the first instruction Env sees only StackAlloc and StackRelease
// calls for the thread's own stack. The active frame's code, registers and
// PC live in locals, reloaded at Call and Ret and written back on return. A
// shared-state instruction only ever runs first, while the frame's PC is
// still its own, so Capture and Restore see the frames a single step would.
func (p *Program) Exec(env Env, t *Thread, max int) (n int, ok bool) {
	if t.Done {
		return 0, false
	}
	f := t.Frames[len(t.Frames)-1]
	code, regs, pc := f.code, f.Regs, f.PC
	for {
		in := &code[pc]
		n++
		switch in.op {
		case ir.OpConst:
			regs[in.dst] = in.imm
			pc++
		case ir.OpMov:
			regs[in.dst] = regs[in.a]
			pc++
		case ir.OpBin:
			// The common arithmetic kinds are open-coded: ir.EvalBin contains
			// a panic and is not inlinable, and this is the hottest ALU path.
			a, b := regs[in.a], regs[in.b]
			switch in.bin {
			case ir.BinAdd:
				regs[in.dst] = a + b
			case ir.BinSub:
				regs[in.dst] = a - b
			case ir.BinMul:
				regs[in.dst] = a * b
			default:
				regs[in.dst] = ir.EvalBin(in.bin, a, b)
			}
			pc++
		case ir.OpCmp:
			if ir.EvalCmp(in.pred, regs[in.a], regs[in.b]) {
				regs[in.dst] = 1
			} else {
				regs[in.dst] = 0
			}
			pc++
		case ir.OpLoad:
			v, ctrl := env.Load(t, mem.Addr(regs[in.a]+in.imm), in.safe)
			if ctrl != CtrlOK {
				return n, false
			}
			regs[in.dst] = v
			pc++
		case ir.OpStore:
			if env.Store(t, mem.Addr(regs[in.a]+in.imm), regs[in.b], in.safe) != CtrlOK {
				return n, false
			}
			pc++
		case ir.OpAlloca:
			// imm is pre-scaled to bytes by the decoder.
			regs[in.dst] = int64(f.StackBase) + in.imm
			pc++
		case ir.OpGlobalAddr:
			if !p.globalsLaid {
				panic(fmt.Sprintf("interp: global %v not laid out", f.Fn.Blocks[f.Block].Instrs[pc]))
			}
			regs[in.dst] = int64(p.globalAddrs[in.aux])
			pc++
		case ir.OpMalloc:
			regs[in.dst] = int64(env.Malloc(t, regs[in.a]))
			pc++
		case ir.OpFree:
			env.Free(t, mem.Addr(regs[in.a]), regs[in.b])
			pc++
		case ir.OpCall:
			cs := &f.df.calls[in.aux]
			callee := cs.callee
			base := env.StackAlloc(t, callee.fn.AllocaWords)
			nf := t.takeFrame(callee.fn.NumRegs)
			nf.Fn, nf.df, nf.Block, nf.PC, nf.code = callee.fn, callee, 0, 0, callee.blocks[0]
			nf.StackBase = base
			nf.RetReg = in.dst
			for i, arg := range cs.args {
				nf.Regs[callee.fn.Params[i]] = regs[arg]
			}
			f.PC = pc + 1 // caller resumes after the call
			t.Frames = append(t.Frames, nf)
			f, code, regs, pc = nf, nf.code, nf.Regs, 0
		case ir.OpRet:
			var ret int64
			if in.a != ir.NoReg {
				ret = regs[in.a]
			}
			retReg := f.RetReg
			env.StackRelease(t, f.StackBase)
			t.Frames[len(t.Frames)-1] = nil
			t.Frames = t.Frames[:len(t.Frames)-1]
			t.releaseFrame(f)
			if len(t.Frames) == 0 {
				t.Done = true
				return n, true
			}
			f = t.Frames[len(t.Frames)-1]
			code, regs, pc = f.code, f.Regs, f.PC
			if retReg != ir.NoReg {
				regs[retReg] = ret
			}
		case ir.OpBr:
			f.Block = int(in.aux)
			f.code = f.df.blocks[f.Block]
			code, pc = f.code, 0
		case ir.OpCondBr:
			if regs[in.a] != 0 {
				f.Block = int(in.aux)
			} else {
				f.Block = int(in.imm) // else target rides in imm
			}
			f.code = f.df.blocks[f.Block]
			code, pc = f.code, 0
		case ir.OpTxBegin:
			if env.TxBegin(t) != CtrlOK {
				return n, false
			}
			pc++
		case ir.OpTxEnd:
			if env.TxEnd(t) != CtrlOK {
				return n, false
			}
			pc++
		case ir.OpParallel:
			ps := &f.df.pars[in.aux]
			if cap(t.parArgs) < len(ps.args) {
				t.parArgs = make([]int64, len(ps.args))
			}
			args := t.parArgs[:len(ps.args)]
			for i, a := range ps.args {
				args[i] = regs[a]
			}
			if env.Parallel(t, regs[in.a], ps.sym, args) != CtrlOK {
				return n, false
			}
			pc++
		case ir.OpRand:
			regs[in.dst] = t.randBounded(regs[in.a])
			pc++
		case ir.OpAbortHint:
			if env.AbortHint(t, regs[in.a]) != CtrlOK {
				return n, false
			}
			pc++
		default:
			panic(fmt.Sprintf("interp: unhandled op in %s: %v", f.Fn.Name, f.Fn.Blocks[f.Block].Instrs[pc]))
		}
		if n == max || !localOp[code[pc].op] {
			f.PC = pc
			return n, true
		}
	}
}
