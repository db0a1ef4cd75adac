package ir

import "fmt"

// Op is a TIR opcode.
type Op uint8

// TIR opcodes.
const (
	OpInvalid Op = iota

	// OpConst: Dst = Imm.
	OpConst
	// OpMov: Dst = A.
	OpMov
	// OpBin: Dst = A <Bin> B.
	OpBin
	// OpCmp: Dst = (A <Pred> B) ? 1 : 0.
	OpCmp

	// OpLoad: Dst = mem[A + Imm]. Safe marks the paper's load_word_safe.
	OpLoad
	// OpStore: mem[A + Imm] = B. Safe marks the paper's store_word_safe.
	OpStore

	// OpAlloca: Dst = address of a Words-sized slot in the current frame.
	// Imm holds the precomputed frame offset in words (set by the builder).
	OpAlloca
	// OpGlobalAddr: Dst = address of global Sym.
	OpGlobalAddr
	// OpMalloc: Dst = heap address of A bytes, from the calling thread's arena.
	OpMalloc
	// OpFree: release heap block at address A of B bytes.
	OpFree

	// OpCall: Dst (optional) = Sym(Args...).
	OpCall
	// OpRet: return A (optional).
	OpRet
	// OpBr: unconditional jump to block Then.
	OpBr
	// OpCondBr: jump to Then if A != 0, else to Else.
	OpCondBr

	// OpTxBegin opens a transaction; OpTxEnd commits it.
	OpTxBegin
	OpTxEnd

	// OpParallel: fork A threads each running Sym(tid, Args...); barrier.
	OpParallel

	// OpRand: Dst = uniform pseudo-random value in [0, A), from the
	// executing thread's deterministic PRNG stream.
	OpRand
	// OpAbortHint is a diagnostic no-op that requests an explicit TX abort
	// when A != 0 (used by tests to exercise explicit abort paths).
	OpAbortHint
)

// BinKind selects an OpBin operation.
type BinKind uint8

// Binary operations.
const (
	BinAdd BinKind = iota
	BinSub
	BinMul
	BinDiv
	BinMod
	BinAnd
	BinOr
	BinXor
	BinShl
	BinShr
)

// CmpKind selects an OpCmp predicate.
type CmpKind uint8

// Comparison predicates.
const (
	CmpEQ CmpKind = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

// Instr is one TIR instruction. Fields are interpreted per-opcode; see the
// Op constants. A flat struct (rather than per-op types) keeps the
// interpreter's dispatch loop simple and fast.
type Instr struct {
	// ID is module-unique; analyses key per-instruction facts on it.
	ID int
	Op Op

	Dst  Reg
	A, B Reg
	Imm  int64

	Bin  BinKind
	Pred CmpKind

	// Sym names a global (OpGlobalAddr), callee (OpCall), or thread body
	// (OpParallel).
	Sym string
	// Args are call/parallel argument registers.
	Args []Reg
	// Then/Else are branch target block names.
	Then, Else string

	// Safe is the static safety hint on OpLoad/OpStore, set by the
	// classification passes (or by hand in tests).
	Safe bool
	// Words is the OpAlloca size.
	Words int64
}

// IsTerminator reports whether the instruction must end a basic block.
func (in *Instr) IsTerminator() bool {
	switch in.Op {
	case OpBr, OpCondBr, OpRet:
		return true
	}
	return false
}

// IsMemAccess reports whether the instruction loads or stores simulated
// memory through an address register.
func (in *Instr) IsMemAccess() bool { return in.Op == OpLoad || in.Op == OpStore }

// Uses returns the registers the instruction reads.
func (in *Instr) Uses() []Reg {
	var u []Reg
	add := func(r Reg) {
		if r != NoReg {
			u = append(u, r)
		}
	}
	switch in.Op {
	case OpMov, OpLoad, OpMalloc, OpRand, OpCondBr, OpAbortHint:
		add(in.A)
	case OpBin, OpCmp, OpStore, OpFree:
		add(in.A)
		add(in.B)
	case OpRet:
		add(in.A)
	case OpCall, OpParallel:
		if in.Op == OpParallel {
			add(in.A)
		}
		u = append(u, in.Args...)
	}
	return u
}

// Def returns the register the instruction writes, or NoReg.
func (in *Instr) Def() Reg {
	switch in.Op {
	case OpConst, OpMov, OpBin, OpCmp, OpLoad, OpAlloca, OpGlobalAddr,
		OpMalloc, OpRand:
		return in.Dst
	case OpCall:
		return in.Dst // may be NoReg for void calls
	}
	return NoReg
}

func (k BinKind) String() string {
	switch k {
	case BinAdd:
		return "add"
	case BinSub:
		return "sub"
	case BinMul:
		return "mul"
	case BinDiv:
		return "div"
	case BinMod:
		return "mod"
	case BinAnd:
		return "and"
	case BinOr:
		return "or"
	case BinXor:
		return "xor"
	case BinShl:
		return "shl"
	case BinShr:
		return "shr"
	}
	return fmt.Sprintf("bin(%d)", uint8(k))
}

func (k CmpKind) String() string {
	switch k {
	case CmpEQ:
		return "eq"
	case CmpNE:
		return "ne"
	case CmpLT:
		return "lt"
	case CmpLE:
		return "le"
	case CmpGT:
		return "gt"
	case CmpGE:
		return "ge"
	}
	return fmt.Sprintf("cmp(%d)", uint8(k))
}

// String renders the instruction in the textual TIR syntax.
func (in *Instr) String() string {
	safe := ""
	if in.Safe {
		safe = ".safe"
	}
	switch in.Op {
	case OpConst:
		return fmt.Sprintf("%v = const %d", in.Dst, in.Imm)
	case OpMov:
		return fmt.Sprintf("%v = mov %v", in.Dst, in.A)
	case OpBin:
		return fmt.Sprintf("%v = %v %v, %v", in.Dst, in.Bin, in.A, in.B)
	case OpCmp:
		return fmt.Sprintf("%v = cmp.%v %v, %v", in.Dst, in.Pred, in.A, in.B)
	case OpLoad:
		return fmt.Sprintf("%v = load%s [%v+%d]", in.Dst, safe, in.A, in.Imm)
	case OpStore:
		return fmt.Sprintf("store%s [%v+%d], %v", safe, in.A, in.Imm, in.B)
	case OpAlloca:
		return fmt.Sprintf("%v = alloca %d words (off %d)", in.Dst, in.Words, in.Imm)
	case OpGlobalAddr:
		return fmt.Sprintf("%v = global @%s", in.Dst, in.Sym)
	case OpMalloc:
		return fmt.Sprintf("%v = malloc %v", in.Dst, in.A)
	case OpFree:
		return fmt.Sprintf("free %v, %v", in.A, in.B)
	case OpCall:
		return fmt.Sprintf("%v = call @%s%v", in.Dst, in.Sym, in.Args)
	case OpRet:
		if in.A == NoReg {
			return "ret"
		}
		return fmt.Sprintf("ret %v", in.A)
	case OpBr:
		return fmt.Sprintf("br %s", in.Then)
	case OpCondBr:
		return fmt.Sprintf("condbr %v, %s, %s", in.A, in.Then, in.Else)
	case OpTxBegin:
		return "txbegin"
	case OpTxEnd:
		return "txend"
	case OpParallel:
		return fmt.Sprintf("parallel %v x @%s%v", in.A, in.Sym, in.Args)
	case OpRand:
		return fmt.Sprintf("%v = rand %v", in.Dst, in.A)
	case OpAbortHint:
		return fmt.Sprintf("aborthint %v", in.A)
	}
	return fmt.Sprintf("op(%d)", in.Op)
}
