package ir

import (
	"fmt"
	"strings"
)

// String renders the module in a readable textual form, used by hintm-sim
// -dump/-func to print IR with or without classification and by tests for
// golden comparisons of pass output.
func (m *Module) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s\n", m.Name)
	for _, g := range m.Globals {
		align := ""
		if g.PageAligned {
			align = " pagealigned"
		}
		fmt.Fprintf(&sb, "global @%s [%d words]%s\n", g.Name, g.Words, align)
	}
	for _, f := range m.Funcs {
		sb.WriteString(f.String())
	}
	return sb.String()
}

// String renders one function.
func (f *Func) String() string {
	var sb strings.Builder
	kind := "func"
	if f.ThreadBody {
		kind = "threadbody"
	}
	params := make([]string, len(f.Params))
	for i, p := range f.Params {
		params[i] = p.String()
	}
	fmt.Fprintf(&sb, "\n%s @%s(%s) regs=%d frame=%dw {\n",
		kind, f.Name, strings.Join(params, ", "), f.NumRegs, f.AllocaWords)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "%s:\n", b.Name)
		for _, in := range b.Instrs {
			fmt.Fprintf(&sb, "\t%v\n", in)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Stats summarizes a module for reports.
type Stats struct {
	Funcs, Blocks, Instrs int
	Loads, Stores         int
	SafeLoads, SafeStores int
}

// CollectStats counts instructions and safety annotations.
func CollectStats(m *Module) Stats {
	var s Stats
	s.Funcs = len(m.Funcs)
	for _, f := range m.Funcs {
		s.Blocks += len(f.Blocks)
		for _, b := range f.Blocks {
			s.Instrs += len(b.Instrs)
			for _, in := range b.Instrs {
				switch in.Op {
				case OpLoad:
					s.Loads++
					if in.Safe {
						s.SafeLoads++
					}
				case OpStore:
					s.Stores++
					if in.Safe {
						s.SafeStores++
					}
				}
			}
		}
	}
	return s
}
