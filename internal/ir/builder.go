package ir

import "fmt"

// Builder constructs a Module programmatically. Workload kernels use it the
// way a compiler front end would emit IR.
type Builder struct {
	M *Module
}

// NewBuilder returns a builder for a fresh module.
func NewBuilder(name string) *Builder {
	return &Builder{M: NewModule(name)}
}

// Global declares a module global of the given word count.
func (b *Builder) Global(name string, words int64) *Global {
	return b.M.AddGlobal(&Global{Name: name, Words: words})
}

// GlobalPageAligned declares a page-aligned global (large shared tables).
func (b *Builder) GlobalPageAligned(name string, words int64) *Global {
	return b.M.AddGlobal(&Global{Name: name, Words: words, PageAligned: true})
}

// GlobalInit declares a global with initial values.
func (b *Builder) GlobalInit(name string, words int64, init []int64) *Global {
	if int64(len(init)) > words {
		panic("ir: init longer than global " + name)
	}
	return b.M.AddGlobal(&Global{Name: name, Words: words, Init: init})
}

// Function opens a new function with nparams parameters and returns its
// builder, positioned at a fresh "entry" block.
func (b *Builder) Function(name string, nparams int) *FuncBuilder {
	f := &Func{Name: name}
	for i := 0; i < nparams; i++ {
		f.Params = append(f.Params, Reg(i))
	}
	f.NumRegs = nparams
	b.M.AddFunc(f)
	fb := &FuncBuilder{b: b, F: f, nextReg: Reg(nparams)}
	fb.cur = fb.NewBlock("entry")
	return fb
}

// ThreadBody opens a function flagged as a Parallel target. Its first
// parameter is the thread id.
func (b *Builder) ThreadBody(name string, nparams int) *FuncBuilder {
	fb := b.Function(name, nparams)
	fb.F.ThreadBody = true
	return fb
}

// FuncBuilder emits instructions into one function, at a cursor block.
type FuncBuilder struct {
	b       *Builder
	F       *Func
	cur     *Block
	nextReg Reg
}

// Param returns the i-th parameter register.
func (fb *FuncBuilder) Param(i int) Reg { return fb.F.Params[i] }

// NewBlock creates a block without moving the cursor.
func (fb *FuncBuilder) NewBlock(name string) *Block {
	return fb.F.addBlock(&Block{Name: name})
}

// SetBlock moves the emission cursor.
func (fb *FuncBuilder) SetBlock(blk *Block) { fb.cur = blk }

func (fb *FuncBuilder) newReg() Reg {
	r := fb.nextReg
	fb.nextReg++
	fb.F.NumRegs = int(fb.nextReg)
	return r
}

func (fb *FuncBuilder) emit(in *Instr) *Instr {
	if fb.cur == nil {
		panic("ir: no cursor block in " + fb.F.Name)
	}
	if n := len(fb.cur.Instrs); n > 0 && fb.cur.Instrs[n-1].IsTerminator() {
		panic(fmt.Sprintf("ir: emitting %v after terminator in %s.%s",
			in, fb.F.Name, fb.cur.Name))
	}
	in.ID = fb.b.M.NextInstrID()
	fb.cur.Instrs = append(fb.cur.Instrs, in)
	return in
}

// C emits a constant and returns its register.
func (fb *FuncBuilder) C(v int64) Reg {
	r := fb.newReg()
	fb.emit(&Instr{Op: OpConst, Dst: r, Imm: v})
	return r
}

// Mov copies src into a fresh register.
func (fb *FuncBuilder) Mov(src Reg) Reg {
	r := fb.newReg()
	fb.emit(&Instr{Op: OpMov, Dst: r, A: src})
	return r
}

// MovTo copies src into dst (loop-carried variables).
func (fb *FuncBuilder) MovTo(dst, src Reg) {
	fb.emit(&Instr{Op: OpMov, Dst: dst, A: src})
}

// Bin emits a binary operation.
func (fb *FuncBuilder) Bin(k BinKind, a, b Reg) Reg {
	r := fb.newReg()
	fb.emit(&Instr{Op: OpBin, Dst: r, Bin: k, A: a, B: b})
	return r
}

// Convenience arithmetic wrappers.
func (fb *FuncBuilder) Add(a, b Reg) Reg { return fb.Bin(BinAdd, a, b) }
func (fb *FuncBuilder) Sub(a, b Reg) Reg { return fb.Bin(BinSub, a, b) }
func (fb *FuncBuilder) Mul(a, b Reg) Reg { return fb.Bin(BinMul, a, b) }
func (fb *FuncBuilder) Mod(a, b Reg) Reg { return fb.Bin(BinMod, a, b) }
func (fb *FuncBuilder) Xor(a, b Reg) Reg { return fb.Bin(BinXor, a, b) }

// AddI adds an immediate.
func (fb *FuncBuilder) AddI(a Reg, imm int64) Reg { return fb.Add(a, fb.C(imm)) }

// MulI multiplies by an immediate.
func (fb *FuncBuilder) MulI(a Reg, imm int64) Reg { return fb.Mul(a, fb.C(imm)) }

// Cmp emits a comparison producing 0/1.
func (fb *FuncBuilder) Cmp(p CmpKind, a, b Reg) Reg {
	r := fb.newReg()
	fb.emit(&Instr{Op: OpCmp, Dst: r, Pred: p, A: a, B: b})
	return r
}

// Load emits an (unsafe) word load from [addr+off bytes].
func (fb *FuncBuilder) Load(addr Reg, off int64) Reg {
	r := fb.newReg()
	fb.emit(&Instr{Op: OpLoad, Dst: r, A: addr, Imm: off})
	return r
}

// Store emits an (unsafe) word store to [addr+off bytes].
func (fb *FuncBuilder) Store(addr Reg, off int64, val Reg) {
	fb.emit(&Instr{Op: OpStore, A: addr, Imm: off, B: val})
}

// LoadSafe emits a load pre-marked safe — the Notary-style manual
// annotation path the paper notes HinTM trivially supports. The programmer
// asserts the location cannot race; the classifier leaves explicit marks
// untouched.
func (fb *FuncBuilder) LoadSafe(addr Reg, off int64) Reg {
	r := fb.newReg()
	fb.emit(&Instr{Op: OpLoad, Dst: r, A: addr, Imm: off, Safe: true})
	return r
}

// StoreSafe emits a store pre-marked safe. The programmer asserts the
// target is thread-private AND the store is initializing; an aborted
// transaction will NOT restore the old value (exactly the hardware
// semantics the hint enables), so a wrong annotation corrupts state.
func (fb *FuncBuilder) StoreSafe(addr Reg, off int64, val Reg) {
	fb.emit(&Instr{Op: OpStore, A: addr, Imm: off, B: val, Safe: true})
}

// Alloca reserves words in the frame and returns the slot's address register.
func (fb *FuncBuilder) Alloca(words int64) Reg {
	r := fb.newReg()
	off := fb.F.AllocaWords
	fb.F.AllocaWords += words
	fb.emit(&Instr{Op: OpAlloca, Dst: r, Words: words, Imm: off})
	return r
}

// GlobalAddr materializes the address of a global.
func (fb *FuncBuilder) GlobalAddr(name string) Reg {
	if fb.b.M.Global(name) == nil {
		panic("ir: unknown global @" + name)
	}
	r := fb.newReg()
	fb.emit(&Instr{Op: OpGlobalAddr, Dst: r, Sym: name})
	return r
}

// Malloc allocates size(bytes held in reg) heap bytes.
func (fb *FuncBuilder) Malloc(size Reg) Reg {
	r := fb.newReg()
	fb.emit(&Instr{Op: OpMalloc, Dst: r, A: size})
	return r
}

// MallocI allocates a constant number of heap bytes.
func (fb *FuncBuilder) MallocI(bytes int64) Reg { return fb.Malloc(fb.C(bytes)) }

// Free releases a heap block of the given size.
func (fb *FuncBuilder) Free(addr, size Reg) {
	fb.emit(&Instr{Op: OpFree, A: addr, B: size})
}

// FreeI releases a heap block of a constant size.
func (fb *FuncBuilder) FreeI(addr Reg, bytes int64) { fb.Free(addr, fb.C(bytes)) }

// Call emits a call with a result register.
func (fb *FuncBuilder) Call(callee string, args ...Reg) Reg {
	r := fb.newReg()
	fb.emit(&Instr{Op: OpCall, Dst: r, Sym: callee, Args: args})
	return r
}

// CallVoid emits a call discarding any result.
func (fb *FuncBuilder) CallVoid(callee string, args ...Reg) {
	fb.emit(&Instr{Op: OpCall, Dst: NoReg, Sym: callee, Args: args})
}

// Ret returns a value.
func (fb *FuncBuilder) Ret(v Reg) { fb.emit(&Instr{Op: OpRet, A: v}) }

// RetVoid returns without a value.
func (fb *FuncBuilder) RetVoid() { fb.emit(&Instr{Op: OpRet, A: NoReg}) }

// Br jumps unconditionally.
func (fb *FuncBuilder) Br(target *Block) {
	fb.emit(&Instr{Op: OpBr, Then: target.Name})
}

// CondBr branches on cond != 0.
func (fb *FuncBuilder) CondBr(cond Reg, then, els *Block) {
	fb.emit(&Instr{Op: OpCondBr, A: cond, Then: then.Name, Else: els.Name})
}

// TxBegin opens a transaction.
func (fb *FuncBuilder) TxBegin() { fb.emit(&Instr{Op: OpTxBegin}) }

// TxEnd commits the open transaction.
func (fb *FuncBuilder) TxEnd() { fb.emit(&Instr{Op: OpTxEnd}) }

// Parallel forks nThreads (a register) threads running body(tid, args...).
func (fb *FuncBuilder) Parallel(nThreads Reg, body string, args ...Reg) {
	fb.emit(&Instr{Op: OpParallel, A: nThreads, Sym: body, Args: args})
}

// AbortIf requests an explicit transaction abort when cond != 0 (a
// diagnostic escape hatch used by tests and by programs with software
// validation logic).
func (fb *FuncBuilder) AbortIf(cond Reg) {
	fb.emit(&Instr{Op: OpAbortHint, A: cond})
}

// Rand draws a pseudo-random value in [0, bound).
func (fb *FuncBuilder) Rand(bound Reg) Reg {
	r := fb.newReg()
	fb.emit(&Instr{Op: OpRand, Dst: r, A: bound})
	return r
}

// RandI draws a pseudo-random value in [0, bound) for a constant bound.
func (fb *FuncBuilder) RandI(bound int64) Reg { return fb.Rand(fb.C(bound)) }
