package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketEdges(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	// Underflow lands in the first bucket; exact boundary values belong to
	// the bucket they bound (le semantics); overflow lands in +Inf.
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 4.0, 4.0001, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 2, 1, 2} // le=1: {0.5,1}, le=2: {1.5,2}, le=4: {4}, +Inf: {4.0001,100}
	if len(s.Buckets) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(s.Buckets), len(want))
	}
	for i, w := range want {
		if s.Buckets[i] != w {
			t.Errorf("bucket[%d] = %d, want %d (buckets %v)", i, s.Buckets[i], w, s.Buckets)
		}
	}
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	if wantSum := 0.5 + 1 + 1.5 + 2 + 4 + 4.0001 + 100; math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", s.Sum, wantSum)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram(DefLatencyBounds())
	// Seeded xorshift values spread across several decades, including
	// under- and overflow.
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 5000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := float64(x%10_000_000) / 1e7 * 0.5 // [0, 0.5)s
		if i%97 == 0 {
			v = 1e-6 // underflow
		}
		if i%131 == 0 {
			v = 1e9 // overflow
		}
		h.Observe(v)
	}
	s := h.Snapshot()
	prev := -1.0
	for q := 0.0; q <= 1.0; q += 0.005 {
		got := s.Quantile(q)
		if got < prev {
			t.Fatalf("quantile not monotone: q=%v -> %v after %v", q, got, prev)
		}
		prev = got
	}
	bounds := DefLatencyBounds()
	if max := s.Quantile(1); max > bounds[len(bounds)-1] {
		t.Errorf("q=1 -> %v above largest bound %v", max, bounds[len(bounds)-1])
	}
	if s.Quantile(0) < 0 {
		t.Errorf("q=0 negative: %v", s.Quantile(0))
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	if got := (HistSnapshot{}).Quantile(0.99); got != 0 {
		t.Errorf("empty snapshot quantile = %v, want 0", got)
	}
	h := NewHistogram([]float64{1, 2})
	h.Observe(50) // everything in +Inf
	h.Observe(60)
	if got := h.Snapshot().Quantile(0.99); got != 2 {
		t.Errorf("+Inf-only quantile = %v, want clamp to last bound 2", got)
	}
	var nilH *Histogram
	nilH.Observe(1) // must not panic
	if nilH.Count() != 0 || nilH.Snapshot().Count != 0 {
		t.Error("nil histogram not empty")
	}
}

func TestHistogramSub(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(0.5)
	before := h.Snapshot()
	h.Observe(0.5)
	h.Observe(1.5)
	d := h.Snapshot().Sub(before)
	if d.Count != 2 || d.Buckets[0] != 1 || d.Buckets[1] != 1 {
		t.Errorf("delta = %+v, want one obs per bucket", d)
	}
	if math.Abs(d.Sum-2.0) > 1e-9 {
		t.Errorf("delta sum = %v, want 2", d.Sum)
	}
	// Subtracting a zero (never-taken) snapshot is the identity.
	if id := h.Snapshot().Sub(HistSnapshot{}); id.Count != 3 {
		t.Errorf("identity sub count = %d, want 3", id.Count)
	}
}

// TestHistogramConcurrentRender drives concurrent observation (run under
// -race via make race) and then requires the quiesced render to be
// deterministic and complete.
func TestHistogramConcurrentRender(t *testing.T) {
	m := NewMetrics()
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := m.Histogram(MetricServeRequestSec, L("outcome", "sim"))
			for i := 0; i < per; i++ {
				h.Observe(float64(g+1) * 0.001)
			}
		}(g)
	}
	wg.Wait()
	var a, b strings.Builder
	if err := m.Render(&a); err != nil {
		t.Fatal(err)
	}
	if err := m.Render(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("quiesced renders differ")
	}
	fams, err := ParseText(strings.NewReader(a.String()))
	if err != nil {
		t.Fatalf("render does not parse: %v", err)
	}
	hs, err := fams[MetricServeRequestSec].Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if hs.Count != goroutines*per {
		t.Errorf("count = %d, want %d", hs.Count, goroutines*per)
	}
}

func TestHistogramObserveAllocs(t *testing.T) {
	h := NewHistogram(DefLatencyBounds())
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(0.003) }); allocs != 0 {
		t.Errorf("Histogram.Observe allocates %v/op, want 0", allocs)
	}
	var nilH *Histogram
	if allocs := testing.AllocsPerRun(1000, func() { nilH.Observe(0.003) }); allocs != 0 {
		t.Errorf("nil Observe allocates %v/op, want 0", allocs)
	}
}
