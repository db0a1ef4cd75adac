package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-boundary bucket histogram with lock-free
// observation. Boundaries are upper bounds with Prometheus `le`
// (less-or-equal) semantics: an observation lands in the first bucket
// whose bound is >= the value, and values above the last bound land in
// the implicit +Inf bucket. The boundary slice is fixed at construction,
// so Observe is a binary search plus two atomic adds — safe on request
// hot paths — and the rendered exposition is deterministic for a
// deterministic observation sequence.
//
// A nil *Histogram is the disabled histogram: Observe is a no-op,
// matching the nil *Metric and nil Tracer idioms.
type Histogram struct {
	bounds []float64       // ascending upper bounds (le)
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// DefLatencyBounds returns the default latency boundaries used by the
// serving-layer histograms: 21 log-spaced buckets doubling from 100µs, so
// the range covers a sub-millisecond store hit through a ~100s simulation.
func DefLatencyBounds() []float64 {
	bounds := make([]float64, 21)
	b := 100e-6
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return bounds
}

// NewHistogram returns a histogram over the given ascending upper bounds.
// It panics on empty, unsorted, or duplicated bounds — boundaries are
// static configuration, and a bad set is a programming error.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	own := make([]float64, len(bounds))
	copy(own, bounds)
	for i := 1; i < len(own); i++ {
		if own[i] <= own[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: own, counts: make([]atomic.Uint64, len(own)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le semantics)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Snapshot copies the histogram's current state. The per-bucket loads are
// individually atomic but not mutually consistent under concurrent
// observation; Cum is re-derived from the bucket counts, so the snapshot
// is always internally monotone.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{Bounds: h.bounds, Buckets: make([]uint64, len(h.counts))}
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
		s.Count += s.Buckets[i]
	}
	s.Sum = math.Float64frombits(h.sum.Load())
	return s
}

// HistSnapshot is a point-in-time copy of a histogram: per-bucket counts
// (last entry is the +Inf bucket), total count, and value sum.
type HistSnapshot struct {
	Bounds  []float64 // ascending upper bounds, len(Buckets)-1 entries
	Buckets []uint64  // per-bucket (non-cumulative) counts
	Count   uint64
	Sum     float64
}
