package obs

import (
	"fmt"
	"io"
	"sort"

	"hintm/internal/htm"
	"hintm/internal/mem"
	"hintm/internal/stats"
)

// Instant is one retained point event.
type Instant struct {
	Ctx   int
	Cycle int64
	Kind  EventKind
	Arg   uint64
}

// Collector retains the event stream in memory. It powers the abort-autopsy
// report and gives tests structured access to everything the machine
// emitted.
type Collector struct {
	Attempts []TxAttempt
	Instants []Instant
	Samples  []CounterSample
}

var _ Tracer = (*Collector)(nil)

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Access implements Tracer: accesses are not retained.
func (c *Collector) Access(ctx, tid int, addr mem.Addr, write, inTx bool) {}

// Ordered implements Tracer: the autopsy reads span annotations.
func (c *Collector) Ordered() bool { return true }

// TxBegin implements Tracer (spans are recorded complete, at TxEnd).
func (c *Collector) TxBegin(ctx, tid int, cycle int64, fallback bool) {}

// TxEnd implements Tracer.
func (c *Collector) TxEnd(a TxAttempt) { c.Attempts = append(c.Attempts, a) }

// Instant implements Tracer.
func (c *Collector) Instant(ctx int, cycle int64, kind EventKind, arg uint64) {
	c.Instants = append(c.Instants, Instant{Ctx: ctx, Cycle: cycle, Kind: kind, Arg: arg})
}

// Sample implements Tracer.
func (c *Collector) Sample(s CounterSample) { c.Samples = append(c.Samples, s) }

// Autopsy is the per-run abort post-mortem: every abort span grouped by
// reason, and for each capacity abort the footprint breakdown the paper's
// argument is built on — tracked vs. hint-skipped blocks, which structure
// overflowed, and the top offending addresses.
type Autopsy struct {
	// Attempts/Commits/FallbackCommits/Aborts summarize the span stream.
	Attempts, Commits, FallbackCommits, Aborts int
	// CyclesLost sums abort-span durations by reason.
	AbortsByReason map[htm.AbortReason]int
	CyclesLost     map[htm.AbortReason]int64
	// Capacity holds one entry per capacity abort, in emission order.
	Capacity []TxAttempt
	// ByStructure counts capacity aborts per overflowed structure.
	ByStructure map[string]int
	// TopBlocks aggregates the offending footprint across every capacity
	// abort: access count and the number of aborts each block appeared in.
	TopBlocks []AggBlock
}

// AggBlock is one row of the aggregated capacity-abort footprint.
type AggBlock struct {
	Block   uint64
	Touches int
	Aborts  int
}

// Autopsy reduces the collected spans into the abort post-mortem.
func (c *Collector) Autopsy() *Autopsy {
	a := &Autopsy{
		AbortsByReason: make(map[htm.AbortReason]int),
		CyclesLost:     make(map[htm.AbortReason]int64),
		ByStructure:    make(map[string]int),
	}
	agg := make(map[uint64]*AggBlock)
	for _, at := range c.Attempts {
		a.Attempts++
		switch at.Outcome {
		case OutcomeCommit:
			a.Commits++
		case OutcomeFallbackCommit:
			a.FallbackCommits++
		case OutcomeAbort:
			a.Aborts++
			a.AbortsByReason[at.Reason]++
			a.CyclesLost[at.Reason] += at.Duration()
			if at.Reason == htm.AbortCapacity {
				a.Capacity = append(a.Capacity, at)
				if ov := at.Overflow; ov != nil {
					a.ByStructure[ov.Structure]++
					for _, bc := range ov.Top {
						row := agg[bc.Block]
						if row == nil {
							row = &AggBlock{Block: bc.Block}
							agg[bc.Block] = row
						}
						row.Touches += bc.Count
						row.Aborts++
					}
				}
			}
		}
	}
	for _, row := range agg {
		a.TopBlocks = append(a.TopBlocks, *row)
	}
	sort.Slice(a.TopBlocks, func(i, j int) bool {
		if a.TopBlocks[i].Touches != a.TopBlocks[j].Touches {
			return a.TopBlocks[i].Touches > a.TopBlocks[j].Touches
		}
		return a.TopBlocks[i].Block < a.TopBlocks[j].Block
	})
	return a
}

// Render writes the human-readable autopsy report.
func (a *Autopsy) Render(w io.Writer) {
	fmt.Fprintf(w, "abort autopsy: %d attempts, %d commits, %d fallback commits, %d aborts\n",
		a.Attempts, a.Commits, a.FallbackCommits, a.Aborts)
	if a.Aborts > 0 {
		t := stats.NewTable("reason", "aborts", "cycles lost")
		for _, r := range htm.AbortReasons {
			if n := a.AbortsByReason[r]; n > 0 {
				t.Row(r.String(), n, a.CyclesLost[r])
			}
		}
		t.Render(w)
	}
	if len(a.Capacity) == 0 {
		fmt.Fprintf(w, "no capacity aborts to attribute\n")
		return
	}

	fmt.Fprintf(w, "\ncapacity aborts: %d, by structure:", len(a.Capacity))
	for _, s := range sortedKeys(a.ByStructure) {
		fmt.Fprintf(w, " %s=%d", s, a.ByStructure[s])
	}
	fmt.Fprintln(w)
	t := stats.NewTable("#", "ctx", "thread", "cycles", "structure", "tracked", "rd/wr", "hint-skipped", "top blocks")
	for i, at := range a.Capacity {
		structure, top := "?", ""
		tracked, skipped := at.Tracked, at.SafeSkipped
		if ov := at.Overflow; ov != nil {
			structure = ov.Structure
			tracked, skipped = ov.Tracked, ov.Skipped
			top = formatTop(ov.Top, 4)
		}
		t.Row(i, at.Ctx, at.TID,
			fmt.Sprintf("%d..%d", at.Start, at.End),
			structure, tracked,
			fmt.Sprintf("%d/%d", at.ReadSet, at.WriteSet),
			skipped, top)
	}
	t.Render(w)

	if len(a.TopBlocks) > 0 {
		fmt.Fprintf(w, "\ntop offending blocks across all capacity aborts:\n")
		t := stats.NewTable("address", "touches", "aborts")
		for i, row := range a.TopBlocks {
			if i >= 10 {
				break
			}
			t.Row(fmt.Sprintf("0x%x", row.Block*mem.BlockSize), row.Touches, row.Aborts)
		}
		t.Render(w)
	}
}

// formatTop renders up to n of an attempt's top blocks as "addr×count".
func formatTop(top []BlockCount, n int) string {
	s := ""
	for i, bc := range top {
		if i >= n {
			s += fmt.Sprintf(" +%d more", len(top)-n)
			break
		}
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("0x%x×%d", bc.Block*mem.BlockSize, bc.Count)
	}
	return s
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
