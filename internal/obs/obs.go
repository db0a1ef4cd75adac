// Package obs is the simulator's observability layer: a deterministic,
// cycle-timestamped event stream threaded through the whole stack (machine,
// HTM controller, vmem/TLB, cache, fault layer). The machine has one
// observer hook (sim.Machine.Observe) and emits four event classes into the
// Tracer attached there:
//
//   - accesses: every data memory access of the simulated program, with its
//     context, thread, address, direction and whether it is transactional;
//   - spans: one per transaction attempt (begin → commit/abort), annotated
//     with the outcome, abort reason, read/write-set occupancy at end, the
//     hint-skipped footprint, and fallback-lock episodes;
//   - instants: page-mode transitions, TLB shootdowns, minor faults, L1
//     evictions, and injected faults;
//   - counter samples: periodic (every Config.SampleCycles cycles) snapshots
//     of the run's headline counters, forming per-run metrics time series.
//
// Whether a sink is Ordered decides what the machine does for it. An
// ordered sink reads clocks and counters mid-run, so it forces lockstep
// scheduling and gets the full stream. An unordered sink (embedding
// Unordered) reads accesses and transaction events only, whose global order
// run-ahead scheduling keeps: it gets those alone, with spans that carry
// their outcome but no occupancy or hint annotation.
//
// A nil Tracer is the compiled-out fast path: every emission site is guarded
// by a single nil check and the hot path allocates nothing (asserted by
// BenchmarkNilTracerAccess in internal/sim).
//
// Two ordered sinks ship with the package: ChromeTracer writes Chrome
// trace-event JSON (openable in ui.perfetto.dev, one track per hardware
// context) and Collector retains events in memory to power the
// capacity-abort autopsy report. Both are deterministic: two runs of the
// same seeded configuration produce byte-identical trace files, so traces
// are diffable in CI. The Fig.-1 sharing profile (internal/profile) is an
// unordered sink.
package obs

import (
	"fmt"

	"hintm/internal/htm"
	"hintm/internal/mem"
)

// EventKind classifies instant events.
type EventKind uint8

// Instant event kinds.
const (
	// EvPageTransition: a page turned safe→unsafe (shared-rw), aborting
	// every TX that touched it. Arg is the page number.
	EvPageTransition EventKind = iota
	// EvTLBShootdown: a slave context's TLB entry was invalidated by a
	// page-mode transition. Arg is the page number.
	EvTLBShootdown
	// EvMinorFault: a private page upgraded ro→rw. Arg is the page number.
	EvMinorFault
	// EvEviction: the context's core evicted an L1 line. Arg is the block.
	EvEviction
	// EvFaultSpurious: the fault layer fired an injected spurious abort.
	EvFaultSpurious
)

func (k EventKind) String() string {
	switch k {
	case EvPageTransition:
		return "page-transition"
	case EvTLBShootdown:
		return "tlb-shootdown"
	case EvMinorFault:
		return "minor-fault"
	case EvEviction:
		return "l1-eviction"
	case EvFaultSpurious:
		return "fault-spurious"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Outcome classifies how a transaction attempt ended.
type Outcome uint8

// Span outcomes.
const (
	OutcomeCommit Outcome = iota
	OutcomeAbort
	OutcomeFallbackCommit
)

func (o Outcome) String() string {
	switch o {
	case OutcomeCommit:
		return "commit"
	case OutcomeAbort:
		return "abort"
	case OutcomeFallbackCommit:
		return "fallback-commit"
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// BlockCount is one (cache block, access count) pair of a transaction
// attempt's footprint, used to rank the top offending addresses.
type BlockCount struct {
	Block uint64
	Count int
}

// Overflow details a capacity abort: what the bounded structure held when it
// overflowed, what the safety hints kept out of it, and where the footprint
// concentrated.
type Overflow struct {
	// Structure names the hardware structure that overflowed: "tx-buffer"
	// (P8/P8S dedicated buffer), "l1-eviction" (in-L1 tracking lost a line).
	Structure string
	// Tracked is the structure's occupancy in distinct blocks at overflow;
	// Skipped is the distinct blocks the attempt's safety hints elided.
	Tracked, Skipped int
	// Top ranks the attempt's most-accessed blocks, highest count first.
	Top []BlockCount
}

// TxAttempt is one transaction-attempt span.
type TxAttempt struct {
	// Ctx is the hardware context; TID the software thread.
	Ctx, TID int
	// Start/End delimit the attempt in that context's cycle clock (End
	// includes the abort handler / commit cost).
	Start, End int64
	Outcome    Outcome
	// Reason is the abort reason (htm.AbortNone for commits).
	Reason htm.AbortReason
	// Fallback marks a critical section executed under the fallback lock.
	Fallback bool
	// ReadSet/WriteSet/Tracked are the tracking-structure occupancies at
	// span end (blocks; Tracked counts distinct entries, the
	// capacity-relevant footprint).
	ReadSet, WriteSet, Tracked int
	// SafeSkipped counts distinct blocks the attempt accessed that safety
	// hints kept out of the tracking structure.
	SafeSkipped int
	// Overflow is non-nil exactly when Reason == htm.AbortCapacity.
	Overflow *Overflow
}

// Duration is the attempt's span length in cycles.
func (a TxAttempt) Duration() int64 { return a.End - a.Start }

// CounterSample is one periodic snapshot of the run's headline counters
// (cumulative since run start).
type CounterSample struct {
	// Cycle timestamps the sample; Steps is the executed instruction count.
	Cycle, Steps int64

	Commits, FallbackCommits uint64
	// Aborts is indexed by htm.AbortReason.
	Aborts [8]uint64

	TLBMisses, PageTransitions uint64
	L1Hits, L1Misses, BusOps   uint64
}

// TotalAborts sums the per-reason abort counters.
func (s CounterSample) TotalAborts() uint64 {
	var n uint64
	for _, v := range s.Aborts {
		n += v
	}
	return n
}

// Tracer receives the simulator's observability events. Implementations
// must not retain argument memory beyond the call (the machine reuses
// internal buffers); TxAttempt.Overflow.Top is freshly allocated per event
// and safe to keep.
type Tracer interface {
	// Access reports one word access: the hardware context, the software
	// thread, the address, whether it is a write, and whether it executes
	// transactionally (in a hardware attempt or under the fallback lock).
	Access(ctx, tid int, addr mem.Addr, write, inTx bool)
	// TxBegin opens a transaction-attempt span on a context.
	TxBegin(ctx, tid int, cycle int64, fallback bool)
	// TxEnd closes the context's open span with its full annotation.
	TxEnd(a TxAttempt)
	// Instant reports a point event; arg's meaning depends on kind. Only
	// ordered sinks receive instants.
	Instant(ctx int, cycle int64, kind EventKind, arg uint64)
	// Sample reports a periodic counter snapshot. Only ordered sinks
	// receive samples.
	Sample(s CounterSample)
	// Ordered reports whether the sink reads the machine in strict
	// (clock, context) order; see the package comment.
	Ordered() bool
}

// Unordered is embedded by sinks that read only accesses and transaction
// events: it ignores every event and reports Ordered false, so the machine
// keeps run-ahead scheduling and spends nothing on span annotations,
// instants or samples. A sink overrides the events it reads.
type Unordered struct{}

// Access implements Tracer.
func (Unordered) Access(ctx, tid int, addr mem.Addr, write, inTx bool) {}

// TxBegin implements Tracer.
func (Unordered) TxBegin(ctx, tid int, cycle int64, fallback bool) {}

// TxEnd implements Tracer.
func (Unordered) TxEnd(a TxAttempt) {}

// Instant implements Tracer.
func (Unordered) Instant(ctx int, cycle int64, kind EventKind, arg uint64) {}

// Sample implements Tracer.
func (Unordered) Sample(s CounterSample) {}

// Ordered implements Tracer.
func (Unordered) Ordered() bool { return false }

// multi fans events out to several sinks in order.
type multi []Tracer

// Multi combines tracers into one; nil entries are dropped. It returns nil
// when nothing remains (keeping the disabled fast path) and the tracer
// itself when only one remains. The combination is ordered when any of its
// sinks is.
func Multi(ts ...Tracer) Tracer {
	var live multi
	for _, t := range ts {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

func (m multi) Access(ctx, tid int, addr mem.Addr, write, inTx bool) {
	for _, t := range m {
		t.Access(ctx, tid, addr, write, inTx)
	}
}

func (m multi) TxBegin(ctx, tid int, cycle int64, fallback bool) {
	for _, t := range m {
		t.TxBegin(ctx, tid, cycle, fallback)
	}
}

func (m multi) TxEnd(a TxAttempt) {
	for _, t := range m {
		t.TxEnd(a)
	}
}

func (m multi) Instant(ctx int, cycle int64, kind EventKind, arg uint64) {
	for _, t := range m {
		t.Instant(ctx, cycle, kind, arg)
	}
}

func (m multi) Sample(s CounterSample) {
	for _, t := range m {
		t.Sample(s)
	}
}

func (m multi) Ordered() bool {
	for _, t := range m {
		if t.Ordered() {
			return true
		}
	}
	return false
}
