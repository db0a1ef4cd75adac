package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one benchmark-level interval around a call into a layer. Spans
// nest by call structure: workload → pass or setup → cell or figure →
// build / classify / new / run / release.
type span struct {
	kind, name string
	parent     int // index into tracer.spans, -1 for a root
	start, end time.Duration
}

// tracer records spans in memory. All spans come from the benchmark's single
// driving goroutine, so a stack gives each new span its parent. A nil
// *tracer records nothing, which is how untraced runs call it.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(kind, name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{kind: kind, name: name, parent: parent, start: time.Since(t.epoch)})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned, which must be the innermost open one.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("tracer: span %d ended out of order", id))
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].end = time.Since(t.epoch)
}

// selfTimes returns each span kind's total self time: every span's duration
// minus the part of its interval that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.kind] += s.end - s.start - covered(s, children[i])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, reach time.Duration
	for _, in := range iv {
		if in[1] <= reach {
			continue
		}
		if in[0] < reach {
			in[0] = reach
		}
		total += in[1] - in[0]
		reach = in[1]
	}
	return total
}

// chromeEvent is one Chrome trace-event "X" (complete) event; Perfetto and
// chrome://tracing open a file of them.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
}

// writeChrome writes the spans as a Chrome trace-event document.
func writeChrome(w io.Writer, spans []span) error {
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.name, Cat: s.kind, Ph: "X",
			TS:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: 1,
		}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
}
