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
	var nilH *Histogram
	nilH.Observe(1) // must not panic
	if nilH.Count() != 0 || nilH.Snapshot().Count != 0 {
		t.Error("nil histogram not empty")
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
