package trace

import (
	"bytes"
	"testing"

	"hintm/internal/htm"
	"hintm/internal/mem"
	"hintm/internal/sim"
)

// FuzzTraceReader feeds arbitrary bytes through the trace reader and the
// limit study, which must either decode them or return an error, never
// panic. The same bytes also drive a Writer: every event it writes must read
// back exactly.
func FuzzTraceReader(f *testing.F) {
	cfg := sim.DefaultConfig()
	cfg.HTM = sim.HTMInfCap
	rec, _ := recordWorkload(f, "kmeans", cfg)
	f.Add(rec.Bytes()[:min(rec.Len(), 4096)])
	f.Add([]byte("TIR2"))
	f.Add([]byte("TIR1...."))
	f.Add(append([]byte("TIR2"), byte(KindTxAbort), 0xac, 0x02)) // reason 300
	f.Add(append([]byte("TIR2"), byte(KindAccess), 0xff, 0xff, 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		if tr, err := NewReader(bytes.NewReader(data)); err == nil {
			_ = tr.ForEach(func(ev Event) error {
				if ev.Kind == KindTxAbort && !knownReason(uint64(ev.Reason)) {
					t.Fatalf("decoded abort with unknown reason %d", ev.Reason)
				}
				return nil
			})
		}
		_, _ = LimitStudy(bytes.NewReader(data), []int{1, 64})

		want := eventsFrom(data)
		var buf bytes.Buffer
		tw := NewWriter(&buf)
		for _, ev := range want {
			switch ev.Kind {
			case KindAccess:
				tw.OnAccess(ev.TID, ev.Addr, ev.Write, ev.InTx)
			case KindTxBegin:
				tw.OnTxEvent(ev.TID, sim.TxEventBegin, htm.AbortNone)
			case KindTxCommit:
				tw.OnTxEvent(ev.TID, sim.TxEventCommit, htm.AbortNone)
			case KindTxAbort:
				tw.OnTxEvent(ev.TID, sim.TxEventAbort, ev.Reason)
			}
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		tr, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var got []Event
		if err := tr.ForEach(func(ev Event) error {
			got = append(got, ev)
			return nil
		}); err != nil {
			t.Fatalf("re-reading %d written events: %v", len(want), err)
		}
		if len(got) != len(want) {
			t.Fatalf("wrote %d events, read %d", len(want), len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("event %d = %+v, wrote %+v", i, got[i], want[i])
			}
		}
	})
}

// eventsFrom decodes fuzz bytes into the events a simulator could record:
// 3-byte groups of kind and flags, thread id, and an address (or abort
// reason) seed.
func eventsFrom(data []byte) []Event {
	var evs []Event
	var addr uint64
	for ; len(data) >= 3; data = data[3:] {
		ev := Event{Kind: Kind(data[0] & 3), TID: int(data[1])}
		switch ev.Kind {
		case KindAccess:
			ev.Write = data[0]&4 != 0
			ev.InTx = data[0]&8 != 0
			// Large strides in both directions exercise the zigzag deltas.
			addr += uint64(int64(int8(data[2]))) << (data[0] >> 4 * 4)
			ev.Addr = mem.Addr(addr)
		case KindTxAbort:
			ev.Reason = htm.AbortReasons[int(data[2])%len(htm.AbortReasons)]
		}
		evs = append(evs, ev)
	}
	return evs
}
