package interp

import (
	"fmt"

	"hintm/internal/mem"
)

// LayoutGlobals assigns addresses to every module global using the
// allocator, writes initial values into memory, and records each address in
// the program's dense global table (OpGlobalAddr resolves by index). Call
// once before execution.
func (p *Program) LayoutGlobals(al *mem.Allocator, m *mem.Memory) {
	for gi, g := range p.M.Globals {
		var a mem.Addr
		if g.PageAligned {
			a = al.AllocGlobalPageAligned(g.Words * mem.WordSize)
		} else {
			a = al.AllocGlobal(g.Words * mem.WordSize)
		}
		p.globalAddrs[gi] = a
		for i, v := range g.Init {
			m.WriteWord(a+mem.Addr(i*mem.WordSize), v)
		}
	}
	p.globalsLaid = true
}

// GlobalAddr returns the laid-out address of global name.
func (p *Program) GlobalAddr(name string) mem.Addr {
	if p.globalsLaid {
		for gi, g := range p.M.Globals {
			if g.Name == name {
				return p.globalAddrs[gi]
			}
		}
	}
	panic(fmt.Sprintf("interp: global @%s not laid out", name))
}
