package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hintm/internal/htm"
)

// sampleStream feeds a representative event mix into t: two context tracks,
// a commit span, a capacity-abort span with overflow detail, instants, and a
// counter sample.
func sampleStream(t Tracer) {
	t.TxBegin(0, 0, 100, false)
	t.TxEnd(TxAttempt{
		Ctx: 0, TID: 0, Start: 100, End: 250,
		Outcome: OutcomeCommit, ReadSet: 5, WriteSet: 2, Tracked: 6,
	})
	t.Instant(1, 300, EvPageTransition, 7)
	t.Instant(1, 310, EvTLBShootdown, 7)
	t.TxBegin(1, 1, 320, false)
	t.TxEnd(TxAttempt{
		Ctx: 1, TID: 1, Start: 320, End: 900,
		Outcome: OutcomeAbort, Reason: htm.AbortCapacity,
		ReadSet: 64, WriteSet: 1, Tracked: 64, SafeSkipped: 10,
		Overflow: &Overflow{
			Structure: "tx-buffer", Tracked: 64, Skipped: 10,
			Top: []BlockCount{{Block: 0x40, Count: 9}, {Block: 0x41, Count: 3}},
		},
	})
	t.TxBegin(0, 0, 1000, true)
	t.TxEnd(TxAttempt{
		Ctx: 0, TID: 0, Start: 1000, End: 1400,
		Outcome: OutcomeFallbackCommit, Fallback: true,
	})
	t.Sample(CounterSample{
		Cycle: 2000, Steps: 500, Commits: 1, FallbackCommits: 1,
		Aborts:    [8]uint64{0, 0, 0, 1, 0, 0, 0, 0},
		TLBMisses: 3, L1Hits: 40, L1Misses: 8, BusOps: 12,
	})
}

func TestChromeTracerEmitsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	ct := NewChromeTracer(&buf)
	sampleStream(ct)
	if err := ct.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	out := buf.Bytes()
	if !json.Valid(out) {
		t.Fatalf("chrome trace is not valid JSON:\n%s", out)
	}
	if ct.Events() == 0 {
		t.Fatal("Events() = 0, want > 0")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(doc.TraceEvents) != ct.Events() {
		t.Fatalf("decoded %d events, Events() = %d", len(doc.TraceEvents), ct.Events())
	}
	// The capacity abort must carry its overflow annotation.
	if !strings.Contains(buf.String(), `"structure":"tx-buffer"`) {
		t.Error("trace lacks the overflow structure annotation")
	}
	if !strings.Contains(buf.String(), `"reason":"capacity"`) {
		t.Error("trace lacks the abort reason annotation")
	}
}

func TestChromeTracerDeterministic(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		ct := NewChromeTracer(&buf)
		sampleStream(ct)
		if err := ct.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Fatal("identical event streams rendered different traces")
	}
}

func TestMultiDropsNilAndUnwraps(t *testing.T) {
	if Multi() != nil {
		t.Error("Multi() != nil")
	}
	if Multi(nil, nil) != nil {
		t.Error("Multi(nil, nil) != nil")
	}
	c := NewCollector()
	if got := Multi(nil, c); got != Tracer(c) {
		t.Errorf("Multi(nil, c) = %T, want the collector itself", got)
	}
	// Fan-out delivers every event to every sink.
	c2 := NewCollector()
	sampleStream(Multi(c, c2))
	if len(c.Attempts) != 3 || len(c2.Attempts) != 3 {
		t.Errorf("fan-out attempts = %d/%d, want 3/3", len(c.Attempts), len(c2.Attempts))
	}
}

func TestCollectorAutopsy(t *testing.T) {
	c := NewCollector()
	sampleStream(c)
	count := func(kind EventKind) (n int) {
		for _, in := range c.Instants {
			if in.Kind == kind {
				n++
			}
		}
		return n
	}
	if got := count(EvPageTransition); got != 1 {
		t.Errorf("page-transition instants = %d, want 1", got)
	}
	if got := count(EvEviction); got != 0 {
		t.Errorf("l1-eviction instants = %d, want 0", got)
	}

	a := c.Autopsy()
	if a.Attempts != 3 || a.Commits != 1 || a.FallbackCommits != 1 || a.Aborts != 1 {
		t.Fatalf("autopsy totals = %+v", a)
	}
	if a.AbortsByReason[htm.AbortCapacity] != 1 {
		t.Errorf("AbortsByReason[capacity] = %d, want 1", a.AbortsByReason[htm.AbortCapacity])
	}
	if a.CyclesLost[htm.AbortCapacity] != 580 {
		t.Errorf("CyclesLost[capacity] = %d, want 580", a.CyclesLost[htm.AbortCapacity])
	}
	if len(a.Capacity) != 1 || a.Capacity[0].Overflow == nil {
		t.Fatalf("capacity list = %+v", a.Capacity)
	}
	if a.ByStructure["tx-buffer"] != 1 {
		t.Errorf("ByStructure = %v", a.ByStructure)
	}
	if len(a.TopBlocks) != 2 || a.TopBlocks[0].Block != 0x40 || a.TopBlocks[0].Touches != 9 {
		t.Errorf("TopBlocks = %+v, want 0x40×9 first", a.TopBlocks)
	}

	var buf bytes.Buffer
	a.Render(&buf)
	for _, want := range []string{"abort autopsy", "tx-buffer=1", "top offending blocks"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered autopsy lacks %q:\n%s", want, buf.String())
		}
	}
}

func TestAutopsyWithoutCapacityAborts(t *testing.T) {
	c := NewCollector()
	c.TxEnd(TxAttempt{Outcome: OutcomeCommit, End: 10})
	var buf bytes.Buffer
	c.Autopsy().Render(&buf)
	if !strings.Contains(buf.String(), "no capacity aborts") {
		t.Errorf("render = %q, want the no-capacity-aborts note", buf.String())
	}
}
