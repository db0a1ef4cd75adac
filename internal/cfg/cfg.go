// Package cfg provides control-flow-graph utilities over TIR functions:
// successor/predecessor maps, reverse postorder, and the transaction-region
// analysis that determines which instructions execute inside a transaction
// (and under which TxBegin). The static classification passes build on it.
package cfg

import (
	"fmt"

	"hintm/internal/ir"
)

// Graph is the CFG of one function.
type Graph struct {
	F     *ir.Func
	Succs map[*ir.Block][]*ir.Block
	Preds map[*ir.Block][]*ir.Block
	// RPO is the blocks in reverse postorder from the entry; unreachable
	// blocks are excluded.
	RPO []*ir.Block
}

// New builds the CFG for f.
func New(f *ir.Func) *Graph {
	g := &Graph{
		F:     f,
		Succs: make(map[*ir.Block][]*ir.Block, len(f.Blocks)),
		Preds: make(map[*ir.Block][]*ir.Block, len(f.Blocks)),
	}
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			continue
		}
		term := b.Instrs[len(b.Instrs)-1]
		switch term.Op {
		case ir.OpBr:
			g.addEdge(b, f.Block(term.Then))
		case ir.OpCondBr:
			g.addEdge(b, f.Block(term.Then))
			g.addEdge(b, f.Block(term.Else))
		}
	}
	g.computeRPO()
	return g
}

func (g *Graph) addEdge(from, to *ir.Block) {
	if to == nil {
		return // verifier reports dangling targets
	}
	g.Succs[from] = append(g.Succs[from], to)
	g.Preds[to] = append(g.Preds[to], from)
}

func (g *Graph) computeRPO() {
	if len(g.F.Blocks) == 0 {
		return
	}
	seen := make(map[*ir.Block]bool)
	var post []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b] = true
		for _, s := range g.Succs[b] {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(g.F.Entry())
	g.RPO = make([]*ir.Block, len(post))
	for i, b := range post {
		g.RPO[len(post)-1-i] = b
	}
}

// TxRegion maps each instruction inside a transaction to the ID of the
// TxBegin instruction that opens it. Instructions outside any transaction
// are absent. TxBegin itself is not in the region; TxEnd is.
type TxRegion map[*ir.Instr]int

// TxRegions computes the transaction membership of every instruction in f.
// Transactions may span blocks but must not nest, and every join point must
// agree on transaction state; violations return an error (they would be
// programming bugs in a workload kernel).
func TxRegions(f *ir.Func) (TxRegion, error) {
	g := New(f)
	region := make(TxRegion)
	// in[b] = ID of the open TxBegin at block entry, 0 if none, -1 unknown.
	in := make(map[*ir.Block]int, len(f.Blocks))
	for _, b := range f.Blocks {
		in[b] = -1
	}
	if len(g.RPO) == 0 {
		return region, nil
	}
	in[g.RPO[0]] = 0
	changed := true
	for changed {
		changed = false
		for _, b := range g.RPO {
			state := in[b]
			if state == -1 {
				continue
			}
			for _, instr := range b.Instrs {
				switch instr.Op {
				case ir.OpTxBegin:
					if state != 0 {
						return nil, fmt.Errorf("cfg: nested TxBegin in %s.%s", f.Name, b.Name)
					}
					state = instr.ID
				case ir.OpTxEnd:
					if state == 0 {
						return nil, fmt.Errorf("cfg: TxEnd without TxBegin in %s.%s", f.Name, b.Name)
					}
					region[instr] = state
					state = 0
				default:
					if state != 0 {
						region[instr] = state
					}
				}
			}
			for _, s := range g.Succs[b] {
				switch in[s] {
				case -1:
					in[s] = state
					changed = true
				case state:
					// consistent
				default:
					return nil, fmt.Errorf("cfg: inconsistent transaction state at %s.%s", f.Name, s.Name)
				}
			}
		}
	}
	return region, nil
}

// InTx reports whether the instruction runs inside a transaction.
func (r TxRegion) InTx(in *ir.Instr) bool { _, ok := r[in]; return ok }
