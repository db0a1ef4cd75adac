package obs

import (
	"bufio"
	"fmt"
	"io"

	"hintm/internal/mem"
)

// ChromeTracer serializes the event stream as Chrome trace-event JSON — the
// format ui.perfetto.dev and chrome://tracing open directly. Each hardware
// context gets its own track (tid = context id, pid 0); transaction attempts
// are complete ("X") events, point events are thread-scoped instants ("i"),
// and counter samples are counter ("C") events grouped into three tracks
// (transactions, aborts, memory).
//
// All output is produced with fmt verbs over integers and fixed literal
// strings in emission order, so a deterministic simulation yields a
// byte-identical trace file — the property the CI trace-diff job asserts.
// Timestamps are simulated cycles written into the format's microsecond
// field: absolute times read as "µs" in the UI but are really cycles.
type ChromeTracer struct {
	w   *bufio.Writer
	err error
	n   int
	// named tracks which context tracks have had their metadata emitted.
	named map[int]bool
}

var _ Tracer = (*ChromeTracer)(nil)

// NewChromeTracer starts a trace-event stream on w. Call Close to complete
// the JSON document and flush.
func NewChromeTracer(w io.Writer) *ChromeTracer {
	t := &ChromeTracer{w: bufio.NewWriterSize(w, 1<<16), named: make(map[int]bool)}
	t.printf("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	return t
}

func (t *ChromeTracer) printf(format string, args ...any) {
	if t.err != nil {
		return
	}
	_, t.err = fmt.Fprintf(t.w, format, args...)
}

// sep writes the inter-event separator and counts the event.
func (t *ChromeTracer) sep() {
	if t.n > 0 {
		t.printf(",\n")
	}
	t.n++
}

// track lazily emits the metadata naming a context's track. Contexts appear
// in deterministic (simulation) order, so lazy emission stays reproducible.
func (t *ChromeTracer) track(ctx int) {
	if t.named[ctx] {
		return
	}
	t.named[ctx] = true
	t.sep()
	t.printf(`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":"hw-ctx %d"}}`, ctx, ctx)
	t.sep()
	t.printf(`{"name":"thread_sort_index","ph":"M","pid":0,"tid":%d,"args":{"sort_index":%d}}`, ctx, ctx)
}

// Access implements Tracer: the trace records no accesses.
func (t *ChromeTracer) Access(ctx, tid int, addr mem.Addr, write, inTx bool) {}

// Ordered implements Tracer: the trace records clocks and counter samples.
func (t *ChromeTracer) Ordered() bool { return true }

// TxBegin implements Tracer. Spans are emitted as complete events at TxEnd
// (begin carries no information the end event lacks); begin only ensures the
// context's track exists before any instants land on it.
func (t *ChromeTracer) TxBegin(ctx, tid int, cycle int64, fallback bool) {
	t.track(ctx)
}

// TxEnd implements Tracer.
func (t *ChromeTracer) TxEnd(a TxAttempt) {
	t.track(a.Ctx)
	name := "tx"
	if a.Fallback {
		name = "fallback"
	}
	t.sep()
	t.printf(`{"name":%q,"ph":"X","pid":0,"tid":%d,"ts":%d,"dur":%d,"args":{"sw_tid":%d,"outcome":%q,"reason":%q,"readset":%d,"writeset":%d,"tracked":%d,"safe_skipped":%d`,
		name, a.Ctx, a.Start, a.Duration(), a.TID, a.Outcome.String(),
		reasonLabel(a), a.ReadSet, a.WriteSet, a.Tracked, a.SafeSkipped)
	if ov := a.Overflow; ov != nil {
		t.printf(`,"overflow":{"structure":%q,"tracked":%d,"skipped":%d,"top":[`,
			ov.Structure, ov.Tracked, ov.Skipped)
		for i, bc := range ov.Top {
			if i > 0 {
				t.printf(",")
			}
			t.printf(`{"addr":"0x%x","count":%d}`, bc.Block*mem.BlockSize, bc.Count)
		}
		t.printf("]}")
	}
	t.printf("}}")
}

// Instant implements Tracer.
func (t *ChromeTracer) Instant(ctx int, cycle int64, kind EventKind, arg uint64) {
	t.track(ctx)
	t.sep()
	t.printf(`{"name":%q,"ph":"i","s":"t","pid":0,"tid":%d,"ts":%d,"args":{"arg":"0x%x"}}`,
		kind.String(), ctx, cycle, arg)
}

// Sample implements Tracer: one counter event per counter group, so the UI
// renders stacked per-group timelines.
func (t *ChromeTracer) Sample(s CounterSample) {
	t.sep()
	t.printf(`{"name":"transactions","ph":"C","pid":0,"ts":%d,"args":{"commits":%d,"fallback_commits":%d}}`,
		s.Cycle, s.Commits, s.FallbackCommits)
	t.sep()
	t.printf(`{"name":"aborts","ph":"C","pid":0,"ts":%d,"args":{"conflict":%d,"false_conflict":%d,"capacity":%d,"page_mode":%d,"fallback_lock":%d,"explicit":%d,"spurious":%d}}`,
		s.Cycle, s.Aborts[1], s.Aborts[2], s.Aborts[3], s.Aborts[4], s.Aborts[5], s.Aborts[6], s.Aborts[7])
	t.sep()
	t.printf(`{"name":"memory","ph":"C","pid":0,"ts":%d,"args":{"tlb_misses":%d,"page_transitions":%d,"l1_hits":%d,"l1_misses":%d,"bus_ops":%d}}`,
		s.Cycle, s.TLBMisses, s.PageTransitions, s.L1Hits, s.L1Misses, s.BusOps)
}

// Events reports how many trace events were written so far.
func (t *ChromeTracer) Events() int { return t.n }

// Close completes the JSON document and flushes the stream.
func (t *ChromeTracer) Close() error {
	t.printf("\n]}\n")
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// reasonLabel renders the span's abort reason ("" for commits keeps the args
// schema fixed across outcomes).
func reasonLabel(a TxAttempt) string {
	if a.Outcome != OutcomeAbort {
		return ""
	}
	return a.Reason.String()
}
