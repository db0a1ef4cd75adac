package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads the textual TIR syntax emitted by Module.String back into a
// Module, enabling round-trip tooling: dumping a classified module with
// hintm-sim -dump, editing it by hand, and re-running it with -module. The
// grammar is exactly the printer's output:
//
//	module NAME
//	global @name [N words] [pagealigned]
//	func @name(r0, r1) regs=N frame=Nw {
//	label:
//		r2 = const 42
//		r3 = load.safe [r2+8]
//		store [r2+0], r3
//		...
//	}
//
// Parse errors carry 1-based line numbers.
func Parse(src string) (*Module, error) {
	p := &parser{lines: strings.Split(src, "\n")}
	return p.parse()
}

type parser struct {
	lines []string
	pos   int
	m     *Module
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("tir:%d: %s", p.pos, fmt.Sprintf(format, args...))
}

// next returns the next non-empty line (trimmed) or "", false at EOF.
func (p *parser) next() (string, bool) {
	for p.pos < len(p.lines) {
		line := strings.TrimSpace(p.lines[p.pos])
		p.pos++
		if line != "" {
			return line, true
		}
	}
	return "", false
}

func (p *parser) parse() (*Module, error) {
	line, ok := p.next()
	if !ok || !strings.HasPrefix(line, "module ") {
		return nil, p.errf("expected 'module NAME'")
	}
	p.m = NewModule(strings.TrimSpace(strings.TrimPrefix(line, "module ")))

	for {
		line, ok := p.next()
		if !ok {
			break
		}
		switch {
		case strings.HasPrefix(line, "global @"):
			if err := p.parseGlobal(line); err != nil {
				return nil, err
			}
		case strings.HasPrefix(line, "func @"), strings.HasPrefix(line, "threadbody @"):
			if err := p.parseFunc(line); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf("unexpected top-level line %q", line)
		}
	}
	if err := p.m.Verify(); err != nil {
		return nil, fmt.Errorf("tir: parsed module invalid: %w", err)
	}
	return p.m, nil
}

// parseGlobal handles: global @name [N words] [pagealigned]
func (p *parser) parseGlobal(line string) error {
	rest := strings.TrimPrefix(line, "global @")
	name, rest, ok := strings.Cut(rest, " ")
	if !ok {
		return p.errf("malformed global")
	}
	rest = strings.TrimSpace(rest)
	if !strings.HasPrefix(rest, "[") {
		return p.errf("global %s: expected [N words]", name)
	}
	inner, tail, ok := strings.Cut(rest[1:], "]")
	if !ok {
		return p.errf("global %s: unterminated size", name)
	}
	words, err := strconv.ParseInt(strings.TrimSuffix(inner, " words"), 10, 64)
	if err != nil {
		return p.errf("global %s: bad size %q", name, inner)
	}
	if p.m.Global(name) != nil {
		return p.errf("duplicate global %s", name)
	}
	g := &Global{Name: name, Words: words,
		PageAligned: strings.Contains(tail, "pagealigned")}
	p.m.AddGlobal(g)
	return nil
}

// parseFunc handles the header line then blocks until '}'.
func (p *parser) parseFunc(header string) error {
	threadBody := strings.HasPrefix(header, "threadbody ")
	rest := header[strings.Index(header, "@")+1:]
	name, rest, ok := strings.Cut(rest, "(")
	if !ok {
		return p.errf("malformed function header")
	}
	params, rest, ok := strings.Cut(rest, ")")
	if !ok {
		return p.errf("func %s: missing ')'", name)
	}
	if p.m.Func(name) != nil {
		return p.errf("duplicate function %s", name)
	}
	f := &Func{Name: name, ThreadBody: threadBody}
	for _, ps := range strings.Split(params, ",") {
		ps = strings.TrimSpace(ps)
		if ps == "" {
			continue
		}
		r, err := parseReg(ps)
		if err != nil {
			return p.errf("func %s: %v", name, err)
		}
		f.Params = append(f.Params, r)
	}
	var err error
	if f.NumRegs, err = extractInt(rest, "regs="); err != nil {
		return p.errf("func %s: %v", name, err)
	}
	frame, err := extractInt(rest, "frame=")
	if err != nil {
		return p.errf("func %s: %v", name, err)
	}
	f.AllocaWords = int64(frame)

	var cur *Block
	for {
		line, ok := p.next()
		if !ok {
			return p.errf("func %s: unexpected EOF", name)
		}
		if line == "}" {
			break
		}
		if strings.HasSuffix(line, ":") && !strings.Contains(line, " ") {
			cur = &Block{Name: strings.TrimSuffix(line, ":")}
			if f.Block(cur.Name) != nil {
				return p.errf("func %s: duplicate block %s", name, cur.Name)
			}
			f.addBlock(cur)
			continue
		}
		if cur == nil {
			return p.errf("func %s: instruction before any label", name)
		}
		in, err := p.parseInstr(line)
		if err != nil {
			return err
		}
		in.ID = p.m.NextInstrID()
		cur.Instrs = append(cur.Instrs, in)
	}
	p.m.AddFunc(f)
	return nil
}

func extractInt(s, key string) (int, error) {
	i := strings.Index(s, key)
	if i < 0 {
		return 0, fmt.Errorf("missing %q", key)
	}
	rest := s[i+len(key):]
	j := 0
	for j < len(rest) && (rest[j] >= '0' && rest[j] <= '9') {
		j++
	}
	if j == 0 {
		return 0, fmt.Errorf("bad %q value", key)
	}
	return strconv.Atoi(rest[:j])
}

func parseReg(s string) (Reg, error) {
	s = strings.TrimSpace(s)
	if s == "_" {
		return NoReg, nil
	}
	if !strings.HasPrefix(s, "r") {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return Reg(n), nil
}

// parseMem parses "[rA+OFF]".
func parseMem(s string) (Reg, int64, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, fmt.Errorf("bad address %q", s)
	}
	base, off, ok := strings.Cut(s[1:len(s)-1], "+")
	if !ok {
		return 0, 0, fmt.Errorf("bad address %q", s)
	}
	r, err := parseReg(base)
	if err != nil {
		return 0, 0, err
	}
	imm, err := strconv.ParseInt(off, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad offset in %q", s)
	}
	return r, imm, nil
}

var binByName = map[string]BinKind{
	"add": BinAdd, "sub": BinSub, "mul": BinMul, "div": BinDiv, "mod": BinMod,
	"and": BinAnd, "or": BinOr, "xor": BinXor, "shl": BinShl, "shr": BinShr,
}

func isBinOp(op string) bool {
	_, ok := binByName[op]
	return ok
}

var cmpByName = map[string]CmpKind{
	"eq": CmpEQ, "ne": CmpNE, "lt": CmpLT, "le": CmpLE, "gt": CmpGT, "ge": CmpGE,
}

// parseInstr parses one instruction line (the printer's exact formats).
func (p *parser) parseInstr(line string) (*Instr, error) {
	// Assignment forms: "rN = <op> ...".
	if dstStr, rhs, ok := strings.Cut(line, " = "); ok &&
		(dstStr == "_" || strings.HasPrefix(dstStr, "r")) {
		dst, err := parseReg(dstStr)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		op, rest, _ := strings.Cut(rhs, " ")
		switch {
		case op == "const":
			imm, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return nil, p.errf("bad const %q", rest)
			}
			return &Instr{Op: OpConst, Dst: dst, Imm: imm}, nil
		case op == "mov":
			a, err := parseReg(rest)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			return &Instr{Op: OpMov, Dst: dst, A: a}, nil
		case isBinOp(op):
			a, b, err := twoRegs(rest)
			if err != nil {
				return nil, p.errf("%s: %v", op, err)
			}
			return &Instr{Op: OpBin, Bin: binByName[op], Dst: dst, A: a, B: b}, nil
		case strings.HasPrefix(op, "cmp."):
			pred, ok := cmpByName[strings.TrimPrefix(op, "cmp.")]
			if !ok {
				return nil, p.errf("bad predicate %q", op)
			}
			a, b, err := twoRegs(rest)
			if err != nil {
				return nil, p.errf("%s: %v", op, err)
			}
			return &Instr{Op: OpCmp, Pred: pred, Dst: dst, A: a, B: b}, nil
		case op == "load" || op == "load.safe":
			a, imm, err := parseMem(rest)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			return &Instr{Op: OpLoad, Dst: dst, A: a, Imm: imm, Safe: op == "load.safe"}, nil
		case op == "alloca":
			// "alloca N words (off M)"
			fields := strings.Fields(rest)
			if len(fields) < 4 {
				return nil, p.errf("bad alloca %q", rest)
			}
			words, err1 := strconv.ParseInt(fields[0], 10, 64)
			off, err2 := strconv.ParseInt(strings.TrimSuffix(fields[3], ")"), 10, 64)
			if err1 != nil || err2 != nil {
				return nil, p.errf("bad alloca %q", rest)
			}
			return &Instr{Op: OpAlloca, Dst: dst, Words: words, Imm: off}, nil
		case op == "global":
			return &Instr{Op: OpGlobalAddr, Dst: dst, Sym: strings.TrimPrefix(rest, "@")}, nil
		case op == "malloc":
			a, err := parseReg(rest)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			return &Instr{Op: OpMalloc, Dst: dst, A: a}, nil
		case op == "call":
			sym, args, err := parseCallBracket(rest)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			return &Instr{Op: OpCall, Dst: dst, Sym: sym, Args: args}, nil
		case op == "rand":
			a, err := parseReg(rest)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			return &Instr{Op: OpRand, Dst: dst, A: a}, nil
		}
		return nil, p.errf("unknown assignment op %q", op)
	}

	op, rest, _ := strings.Cut(line, " ")
	switch op {
	case "store", "store.safe":
		addrStr, valStr, ok := strings.Cut(rest, ", ")
		if !ok {
			return nil, p.errf("bad store %q", rest)
		}
		a, imm, err := parseMem(addrStr)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		b, err := parseReg(valStr)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		return &Instr{Op: OpStore, A: a, Imm: imm, B: b, Safe: op == "store.safe"}, nil
	case "free":
		a, b, err := twoRegs(rest)
		if err != nil {
			return nil, p.errf("free: %v", err)
		}
		return &Instr{Op: OpFree, A: a, B: b}, nil
	case "ret":
		if rest == "" {
			return &Instr{Op: OpRet, A: NoReg}, nil
		}
		a, err := parseReg(rest)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		return &Instr{Op: OpRet, A: a}, nil
	case "br":
		return &Instr{Op: OpBr, Then: rest}, nil
	case "condbr":
		parts := strings.Split(rest, ", ")
		if len(parts) != 3 {
			return nil, p.errf("bad condbr %q", rest)
		}
		a, err := parseReg(parts[0])
		if err != nil {
			return nil, p.errf("%v", err)
		}
		return &Instr{Op: OpCondBr, A: a, Then: parts[1], Else: parts[2]}, nil
	case "txbegin":
		return &Instr{Op: OpTxBegin}, nil
	case "txend":
		return &Instr{Op: OpTxEnd}, nil
	case "parallel":
		// "parallel rN x @fn[args]"
		nStr, callPart, ok := strings.Cut(rest, " x ")
		if !ok {
			return nil, p.errf("bad parallel %q", rest)
		}
		a, err := parseReg(nStr)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		sym, args, err := parseCallBracket(callPart)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		return &Instr{Op: OpParallel, A: a, Sym: sym, Args: args}, nil
	case "aborthint":
		a, err := parseReg(rest)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		return &Instr{Op: OpAbortHint, A: a}, nil
	}
	return nil, p.errf("unknown instruction %q", line)
}

func twoRegs(s string) (Reg, Reg, error) {
	aStr, bStr, ok := strings.Cut(s, ", ")
	if !ok {
		return 0, 0, fmt.Errorf("expected two registers in %q", s)
	}
	a, err := parseReg(aStr)
	if err != nil {
		return 0, 0, err
	}
	b, err := parseReg(bStr)
	if err != nil {
		return 0, 0, err
	}
	return a, b, nil
}

// parseCallBracket parses the printer's call form "@fn[r1 r2]" (the fmt %v
// rendering of []Reg; an empty argument list prints as "@fn[]").
func parseCallBracket(s string) (string, []Reg, error) {
	s = strings.TrimPrefix(s, "@")
	name, argsPart, ok := strings.Cut(s, "[")
	if !ok {
		return s, nil, nil
	}
	argsPart = strings.TrimSuffix(argsPart, "]")
	var args []Reg
	for _, f := range strings.Fields(argsPart) {
		r, err := parseReg(f)
		if err != nil {
			return "", nil, err
		}
		args = append(args, r)
	}
	return name, args, nil
}
