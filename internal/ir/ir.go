// Package ir defines TIR, the small typed register IR in which the
// simulator's transactional workloads are written. TIR plays the role the
// LLVM IR + MIPS backend play in the paper: HinTM's static classification
// passes (internal/alias, internal/escape, internal/classify) analyze and
// rewrite TIR, and the interpreter (internal/interp) executes it on the
// simulated machine.
//
// TIR is a register machine, not SSA: each function owns a flat space of
// virtual registers holding 64-bit integers (scalar values or addresses).
// Memory is reached explicitly through Load/Store instructions; the safe
// variants of those instructions (the Safe flag) model the paper's
// load_word_safe / store_word_safe opcodes.
//
// A program is a Module: a set of globals and functions. Execution starts
// at the function named "main", which runs single-threaded; a Parallel
// instruction forks N simulated threads each running a named thread-body
// function (first parameter = thread id), with an implicit barrier at the
// end. Transactions are delimited by TxBegin/TxEnd.
package ir

import "fmt"

// Reg is a virtual register index within a function. Register 0 is valid;
// NoReg marks an unused register operand.
type Reg int32

// NoReg marks an absent register operand (e.g. a Ret with no value).
const NoReg Reg = -1

// String formats the register for IR dumps.
func (r Reg) String() string {
	if r == NoReg {
		return "_"
	}
	return fmt.Sprintf("r%d", int32(r))
}

// Module is a whole TIR program.
type Module struct {
	Name    string
	Globals []*Global
	Funcs   []*Func

	funcByName   map[string]*Func
	globalByName map[string]*Global
	nextInstrID  int
}

// NewModule returns an empty module.
func NewModule(name string) *Module {
	return &Module{
		Name:         name,
		funcByName:   make(map[string]*Func),
		globalByName: make(map[string]*Global),
	}
}

// Global is a module-level data object of a fixed word count.
type Global struct {
	Name  string
	Words int64
	// PageAligned requests placement at a page boundary, used for large
	// shared tables so page-granularity metrics are not polluted by
	// neighbouring objects.
	PageAligned bool
	// Init holds optional initial word values (len(Init) <= Words).
	Init []int64
}

// Func is a TIR function.
type Func struct {
	Name   string
	Params []Reg // parameter registers, defined on entry
	Blocks []*Block
	// NumRegs is the size of the virtual register file.
	NumRegs int
	// AllocaWords is the total stack frame size in words, covering every
	// Alloca in the function; individual Allocas carry their frame offset.
	AllocaWords int64
	// ThreadBody marks functions used as Parallel targets.
	ThreadBody bool

	blockByName map[string]*Block
}

// Block is a basic block: a straight-line instruction sequence ending in a
// terminator (Br, CondBr, or Ret).
type Block struct {
	Name   string
	Instrs []*Instr
}

// AddGlobal registers a global object and returns it. Duplicate names panic:
// modules are built programmatically and a clash is a builder bug.
func (m *Module) AddGlobal(g *Global) *Global {
	if _, dup := m.globalByName[g.Name]; dup {
		panic("ir: duplicate global " + g.Name)
	}
	m.Globals = append(m.Globals, g)
	m.globalByName[g.Name] = g
	return g
}

// AddFunc registers a function and returns it.
func (m *Module) AddFunc(f *Func) *Func {
	if _, dup := m.funcByName[f.Name]; dup {
		panic("ir: duplicate function " + f.Name)
	}
	if f.blockByName == nil {
		f.blockByName = make(map[string]*Block)
		for _, b := range f.Blocks {
			f.blockByName[b.Name] = b
		}
	}
	m.Funcs = append(m.Funcs, f)
	m.funcByName[f.Name] = f
	return f
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Func { return m.funcByName[name] }

// Global returns the global with the given name, or nil.
func (m *Module) Global(name string) *Global { return m.globalByName[name] }

// NextInstrID hands out module-unique instruction ids (used as analysis keys).
func (m *Module) NextInstrID() int {
	m.nextInstrID++
	return m.nextInstrID
}

// Block returns the block with the given name, or nil.
func (f *Func) Block(name string) *Block { return f.blockByName[name] }

// addBlock appends a block to the function.
func (f *Func) addBlock(b *Block) *Block {
	if f.blockByName == nil {
		f.blockByName = make(map[string]*Block)
	}
	if _, dup := f.blockByName[b.Name]; dup {
		panic("ir: duplicate block " + b.Name + " in " + f.Name)
	}
	f.Blocks = append(f.Blocks, b)
	f.blockByName[b.Name] = b
	return b
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		panic("ir: function " + f.Name + " has no blocks")
	}
	return f.Blocks[0]
}

// ForEachInstr invokes fn for every instruction in the function, in block
// order.
func (f *Func) ForEachInstr(fn func(b *Block, in *Instr)) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			fn(b, in)
		}
	}
}

// ForEachInstr invokes fn for every instruction in the module.
func (m *Module) ForEachInstr(fn func(f *Func, b *Block, in *Instr)) {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				fn(f, b, in)
			}
		}
	}
}
