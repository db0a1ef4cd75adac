package trace

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"hintm/internal/classify"
	"hintm/internal/htm"
	"hintm/internal/mem"
	"hintm/internal/sim"
	"hintm/internal/workloads"
)

func TestRoundTripEvents(t *testing.T) {
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	tw.OnTxEvent(3, sim.TxEventBegin, htm.AbortNone)
	tw.OnAccess(3, 0x1000, false, true)
	tw.OnAccess(3, 0x1008, true, true)
	tw.OnAccess(3, 0x40, false, false) // backwards delta
	tw.OnTxEvent(3, sim.TxEventCommit, htm.AbortNone)
	tw.OnTxEvent(5, sim.TxEventAbort, htm.AbortCapacity)
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if tw.Events() != 6 {
		t.Fatalf("events = %d", tw.Events())
	}

	tr, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: KindTxBegin, TID: 3},
		{Kind: KindAccess, TID: 3, Addr: 0x1000, InTx: true},
		{Kind: KindAccess, TID: 3, Addr: 0x1008, Write: true, InTx: true},
		{Kind: KindAccess, TID: 3, Addr: 0x40},
		{Kind: KindTxCommit, TID: 3},
		{Kind: KindTxAbort, TID: 5, Reason: htm.AbortCapacity},
	}
	for i, w := range want {
		got, err := tr.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got != w {
			t.Fatalf("event %d = %+v, want %+v", i, got, w)
		}
	}
	if _, err := tr.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReader(strings.NewReader("")); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestOldFormatRejectedWithHint(t *testing.T) {
	_, err := NewReader(strings.NewReader("TIR1...."))
	if err == nil {
		t.Fatal("TIR1 stream accepted")
	}
	if !strings.Contains(err.Error(), "re-record") {
		t.Fatalf("TIR1 rejection should tell the user to re-record, got: %v", err)
	}
}

func TestAbortReasonRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	for _, r := range htm.AbortReasons {
		tw.OnTxEvent(1, sim.TxEventBegin, htm.AbortNone)
		tw.OnTxEvent(1, sim.TxEventAbort, r)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []htm.AbortReason
	if err := tr.ForEach(func(ev Event) error {
		if ev.Kind == KindTxAbort {
			got = append(got, ev.Reason)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(htm.AbortReasons) {
		t.Fatalf("decoded %d aborts, want %d", len(got), len(htm.AbortReasons))
	}
	for i, r := range htm.AbortReasons {
		if got[i] != r {
			t.Fatalf("abort %d decoded reason %v, want %v", i, got[i], r)
		}
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 64, -64, 1 << 40, -(1 << 40)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Fatalf("zigzag(%d) round-trips to %d", v, got)
		}
	}
}

// recordWorkload runs one workload with the trace writer attached.
func recordWorkload(t testing.TB, name string, cfg sim.Config) (*bytes.Buffer, *sim.Result) {
	t.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	mod := spec.Build(spec.DefaultThreads, workloads.Small)
	if _, err := classify.Run(mod); err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(cfg, mod)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	m.SetProfiler(tw)
	res, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf, res
}

func TestLimitStudyMatchesSimulator(t *testing.T) {
	// Record labyrinth on InfCap; the trace-driven footprint histogram must
	// match the simulator's own committed-TX footprints... up to hinted
	// accesses (none here: baseline hints) and block granularity (same).
	cfg := sim.DefaultConfig()
	cfg.HTM = sim.HTMInfCap
	buf, res := recordWorkload(t, "labyrinth", cfg)

	rep, err := LimitStudy(bytes.NewReader(buf.Bytes()), []int{64})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CommittedTxs != res.Commits {
		t.Fatalf("trace commits = %d, simulator = %d", rep.CommittedTxs, res.Commits)
	}
	// The simulator tracks unsafe accesses only; with hints off both count
	// every block, so the means must agree exactly.
	if got, want := rep.Footprints.Mean(), res.TxFootprints.Mean(); got != want {
		t.Fatalf("trace footprint mean = %.2f, simulator = %.2f", got, want)
	}
	if rep.AbortFracAt[64] != res.TxFootprints.FractionAbove(64) {
		t.Fatal("limit-study abort fraction disagrees with simulator histogram")
	}
}

func TestAbortedAttemptsDiscarded(t *testing.T) {
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	// One aborted attempt touching 5 blocks, then a committed retry with 2.
	tw.OnTxEvent(0, sim.TxEventBegin, htm.AbortNone)
	for i := 0; i < 5; i++ {
		tw.OnAccess(0, mem.Addr(i*64), false, true)
	}
	tw.OnTxEvent(0, sim.TxEventAbort, htm.AbortConflict)
	tw.OnTxEvent(0, sim.TxEventBegin, htm.AbortNone)
	tw.OnAccess(0, 0, false, true)
	tw.OnAccess(0, 64, true, true)
	tw.OnTxEvent(0, sim.TxEventCommit, htm.AbortNone)
	tw.Flush()

	rep, err := LimitStudy(bytes.NewReader(buf.Bytes()), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CommittedTxs != 1 {
		t.Fatalf("committed = %d", rep.CommittedTxs)
	}
	if rep.Footprints.Max() != 2 {
		t.Fatalf("footprint = %d, want 2 (aborted attempt discarded)", rep.Footprints.Max())
	}
	if rep.AbortFracAt[1] != 1.0 {
		t.Fatalf("abort frac at size 1 = %f", rep.AbortFracAt[1])
	}
}

func TestTraceCompactness(t *testing.T) {
	cfg := sim.DefaultConfig()
	buf, res := recordWorkload(t, "kmeans", cfg)
	perEvent := float64(buf.Len()) / float64(res.Steps)
	// Sanity: delta encoding keeps traces a few bytes per record, far below
	// a naive 17-byte fixed layout.
	if buf.Len() == 0 {
		t.Fatal("empty trace")
	}
	if perEvent > 8 {
		t.Fatalf("trace too fat: %.1f bytes per instruction-ish event", perEvent)
	}
}

// An abort reason outside htm.AbortReasons is corruption: 300 must not
// truncate to reason 44 (or any other).
func TestUnknownAbortReasonRejected(t *testing.T) {
	for _, reason := range []uint64{0, uint64(htm.AbortSpurious) + 1, 300} {
		var buf bytes.Buffer
		tw := NewWriter(&buf)
		tw.putUvarint(uint64(KindTxAbort) | 1<<4)
		tw.putUvarint(reason)
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		tr, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if ev, err := tr.Next(); err == nil {
			t.Errorf("reason %d decoded as %+v, want an error", reason, ev)
		}
	}
}
