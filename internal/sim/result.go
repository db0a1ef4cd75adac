package sim

import (
	"fmt"
	"strings"

	"hintm/internal/cache"
	"hintm/internal/htm"
	"hintm/internal/stats"
	"hintm/internal/vmem"
)

// ModelVersion names the simulator's behaviour: the Result each
// configuration yields. Bump it in the same change as anything that moves a
// Result byte (a cost, a policy, an iteration order). Result stores key
// every run under it, so a store written by an older model misses instead of
// serving that model's numbers, and the harness's golden records it and
// refuses a regeneration that moves a result under an unchanged version.
const ModelVersion = 1

// Result aggregates one simulation run's statistics.
type Result struct {
	// Cycles is the run's wall-clock length: the maximum context clock.
	Cycles int64
	// Steps is the number of executed instructions across all contexts.
	Steps int64

	// Commits counts HTM commits; FallbackCommits counts critical sections
	// completed under the fallback lock.
	Commits, FallbackCommits uint64
	// Aborts and CyclesLost break down aborts and discarded work by reason.
	Aborts     map[htm.AbortReason]uint64
	CyclesLost map[htm.AbortReason]int64
	// PageModeCycles is the aggregate cost of page-mode transitions
	// (initiator + slave shootdown charges), paper Fig. 4b's secondary axis.
	PageModeCycles int64

	// Transactional access breakdown (paper Fig. 5).
	StaticSafeAccesses uint64
	DynSafeAccesses    uint64
	UnsafeTxAccesses   uint64
	NonTxAccesses      uint64

	// TxFootprints is the committed-TX tracked-footprint histogram in
	// cache blocks (paper Fig. 6).
	TxFootprints *stats.Hist

	Cache cache.Stats
	VM    vmem.Stats
}

func newResult() *Result {
	return &Result{
		Aborts:       make(map[htm.AbortReason]uint64),
		CyclesLost:   make(map[htm.AbortReason]int64),
		TxFootprints: stats.NewHist(),
	}
}

// TotalAborts sums aborts across reasons.
func (r *Result) TotalAborts() uint64 {
	var n uint64
	for _, c := range r.Aborts {
		n += c
	}
	return n
}

// TxAccesses returns the total transactional access count.
func (r *Result) TxAccesses() uint64 {
	return r.StaticSafeAccesses + r.DynSafeAccesses + r.UnsafeTxAccesses
}

// PageModeCycleFraction returns page-mode transition cost relative to the
// run length (Fig. 4b secondary axis).
func (r *Result) PageModeCycleFraction() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.PageModeCycles) / float64(r.Cycles)
}

// String summarizes the run.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cycles=%d commits=%d fallback=%d aborts=%d",
		r.Cycles, r.Commits, r.FallbackCommits, r.TotalAborts())
	for _, reason := range htm.AbortReasons {
		if n := r.Aborts[reason]; n > 0 {
			fmt.Fprintf(&sb, " %s=%d", reason, n)
		}
	}
	return sb.String()
}

// Facts are two properties of a run that the Machine keeps outside Result,
// so no stored byte depends on them. They prove when another configuration
// would execute the very same run (the harness's derived cells, DESIGN.md
// §9): with no static-safe access inside a transaction, the static hint
// changes nothing; with no attempt tracking more blocks than a buffer
// holds, that buffer never binds.
type Facts struct {
	// StaticHintUses counts accesses by statically safe instructions
	// executed in a transaction or under the fallback lock, whether or not
	// the hint mode honours the static hint.
	StaticHintUses uint64
	// MaxTracked is the most distinct blocks any transaction attempt
	// tracked, read when the attempt committed or aborted.
	MaxTracked int
}
