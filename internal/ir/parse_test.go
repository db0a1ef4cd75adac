package ir

import (
	"strings"
	"testing"
)

// roundTrip prints m and parses it back, asserting the re-print matches.
func roundTrip(t *testing.T, m *Module) *Module {
	t.Helper()
	text := m.String()
	parsed, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v\nsource:\n%s", err, text)
	}
	if got := parsed.String(); got != text {
		t.Fatalf("round trip differs:\n--- printed ---\n%s\n--- reparsed ---\n%s", text, got)
	}
	return parsed
}

func TestParseRoundTripCounter(t *testing.T) {
	m := buildCounterModule(t)
	roundTrip(t, m)
}

// buildAllOpsModule builds a verified module using every instruction form.
func buildAllOpsModule(t testing.TB) *Module {
	t.Helper()
	b := NewBuilder("allops")
	b.GlobalPageAligned("table", 64)
	b.Global("ctr", 1)

	h := b.Function("helper", 2)
	v := h.Load(h.Param(0), 8)
	h.Store(h.Param(0), 16, v)
	h.Ret(h.Add(v, h.Param(1)))

	w := b.ThreadBody("worker", 1)
	loop := w.NewBlock("loop")
	done := w.NewBlock("done")
	slot := w.Alloca(2)
	buf := w.MallocI(128)
	g := w.GlobalAddr("table")
	i := w.C(0)
	w.Br(loop)
	w.SetBlock(loop)
	w.TxBegin()
	x := w.RandI(100)
	y := w.Bin(BinXor, x, w.Param(0))
	c := w.Cmp(CmpLE, y, w.C(50))
	w.Store(slot, 0, c)
	sv := w.LoadSafe(slot, 0)
	w.StoreSafe(buf, 0, sv)
	r := w.Call("helper", g, y)
	w.emit(&Instr{Op: OpAbortHint, A: w.Mov(r)})
	w.TxEnd()
	w.MovTo(i, w.AddI(i, 1))
	cc := w.Cmp(CmpLT, i, w.C(3))
	w.CondBr(cc, loop, done)
	w.SetBlock(done)
	w.FreeI(buf, 128)
	w.RetVoid()

	mn := b.Function("main", 0)
	n := mn.C(4)
	mn.Parallel(n, "worker")
	mn.RetVoid()

	if err := b.M.Verify(); err != nil {
		t.Fatal(err)
	}
	return b.M
}

func TestParseRoundTripAllOps(t *testing.T) {
	parsed := roundTrip(t, buildAllOpsModule(t))

	// Safety bits must survive the round trip.
	var safeLoads, safeStores int
	parsed.ForEachInstr(func(_ *Func, _ *Block, in *Instr) {
		if in.Op == OpLoad && in.Safe {
			safeLoads++
		}
		if in.Op == OpStore && in.Safe {
			safeStores++
		}
	})
	if safeLoads != 1 || safeStores != 1 {
		t.Fatalf("safety bits lost: %d/%d", safeLoads, safeStores)
	}
	if parsed.Func("worker") == nil || !parsed.Func("worker").ThreadBody {
		t.Fatal("threadbody flag lost")
	}
	if g := parsed.Global("table"); g == nil || !g.PageAligned || g.Words != 64 {
		t.Fatalf("global attributes lost: %+v", g)
	}
}

// parseErrorCases are malformed sources with the error each must produce.
var parseErrorCases = []struct {
	name, src, want string
}{
	{"no module", "func @f() regs=0 frame=0w {\n}\n", "expected 'module"},
	{"bad global", "module m\nglobal @g oops\n", "expected [N words]"},
	{"bad instr", "module m\nfunc @main() regs=0 frame=0w {\nentry:\n\tfrobnicate r1\n}\n", "unknown instruction"},
	{"txsuspend", "module m\nfunc @main() regs=0 frame=0w {\nentry:\n\ttxsuspend\n}\n", "unknown instruction"},
	{"txresume", "module m\nfunc @main() regs=0 frame=0w {\nentry:\n\ttxresume\n}\n", "unknown instruction"},
	{"instr before label", "module m\nfunc @main() regs=1 frame=0w {\n\tret\n}\n", "before any label"},
	{"eof in func", "module m\nfunc @main() regs=0 frame=0w {\nentry:\n\tret\n", "unexpected EOF"},
	{"invalid module", "module m\nfunc @f() regs=0 frame=0w {\nentry:\n\tret\n}\n", "no main"},
	{"duplicate global", "module m\nglobal @g [1 words]\nglobal @g [2 words]\n", "tir:3: duplicate global g"},
	{"duplicate function", "module m\nfunc @main() regs=0 frame=0w {\nentry:\n\tret\n}\n\nfunc @main() regs=0 frame=0w {\n",
		"tir:7: duplicate function main"},
	{"duplicate block", "module m\nfunc @main() regs=0 frame=0w {\nspin:\n\tbr spin\nspin:\n\tret\n}\n",
		"tir:5: func main: duplicate block spin"},
}

func TestParseErrors(t *testing.T) {
	for _, c := range parseErrorCases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("want error containing %q, got %v", c.want, err)
			}
		})
	}
}

const handwrittenSrc = `module hand
global @g [4 words]

func @main() regs=3 frame=0w {
entry:
	r0 = global @g
	r1 = const 7
	store [r0+8], r1
	r2 = load [r0+8]
	ret
}
`

func TestParseHandwritten(t *testing.T) {
	m, err := Parse(handwrittenSrc)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "hand" {
		t.Fatalf("name = %q", m.Name)
	}
	var stores int
	m.ForEachInstr(func(_ *Func, _ *Block, in *Instr) {
		if in.Op == OpStore {
			stores++
			if in.Imm != 8 {
				t.Errorf("store offset = %d", in.Imm)
			}
		}
	})
	if stores != 1 {
		t.Fatalf("stores = %d", stores)
	}
}
