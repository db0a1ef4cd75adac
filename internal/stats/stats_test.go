package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestHistBasics(t *testing.T) {
	h := NewHist()
	for _, v := range []int{1, 2, 2, 3, 3, 3} {
		h.Add(v)
	}
	if h.N() != 6 {
		t.Fatalf("N = %d", h.N())
	}
	if got := h.Mean(); got < 2.33 || got > 2.34 {
		t.Fatalf("Mean = %f", got)
	}
	if h.Max() != 3 {
		t.Fatalf("Max = %d", h.Max())
	}
}

// TestHistEmpty pins the documented zero values of every summary accessor
// on a zero-sample histogram: whatever the internals do, an empty Hist must
// answer 0 everywhere, never panic, and never leak an implementation
// accident (such as Percentile indexing an empty value list).
func TestHistEmpty(t *testing.T) {
	h := NewHist()
	if h.N() != 0 {
		t.Errorf("N = %d, want 0", h.N())
	}
	if got := h.Mean(); got != 0 {
		t.Errorf("Mean = %f, want 0", got)
	}
	if got := h.Max(); got != 0 {
		t.Errorf("Max = %d, want 0", got)
	}
	for _, p := range []float64{0, 0.5, 0.95, 1} {
		if got := h.Percentile(p); got != 0 {
			t.Errorf("Percentile(%v) = %d, want 0", p, got)
		}
	}
	for i, c := range h.CDF([]int{-1, 0, 7}) {
		if c != 0 {
			t.Errorf("CDF[%d] = %f, want 0", i, c)
		}
	}
}

// Max must report the true maximum for all-negative histograms, not the
// zero-initialized accumulator.
func TestHistMaxNegative(t *testing.T) {
	h := NewHist()
	for _, v := range []int{-5, -9, -2} {
		h.Add(v)
	}
	if got := h.Max(); got != -2 {
		t.Errorf("Max = %d, want -2", got)
	}
}

func TestHistCDF(t *testing.T) {
	h := NewHist()
	for v := 1; v <= 10; v++ {
		h.Add(v)
	}
	cdf := h.CDF([]int{0, 5, 10, 20})
	want := []float64{0, 0.5, 1, 1}
	for i := range want {
		if cdf[i] != want[i] {
			t.Errorf("CDF[%d] = %f, want %f", i, cdf[i], want[i])
		}
	}
}

func TestHistPercentile(t *testing.T) {
	h := NewHist()
	for v := 1; v <= 100; v++ {
		h.Add(v)
	}
	if p := h.Percentile(0.5); p != 50 {
		t.Errorf("p50 = %d", p)
	}
	if p := h.Percentile(1.0); p != 100 {
		t.Errorf("p100 = %d", p)
	}
}

func TestHistCDFMonotoneProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		h := NewHist()
		for _, v := range vals {
			h.Add(int(v))
		}
		points := []int{0, 16, 32, 64, 128, 256}
		cdf := h.CDF(points)
		for i := 1; i < len(cdf); i++ {
			if cdf[i] < cdf[i-1] {
				return false
			}
		}
		return len(vals) == 0 || cdf[len(cdf)-1] == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmptyHistSafe(t *testing.T) {
	h := NewHist()
	if h.Mean() != 0 || h.Max() != 0 || h.Percentile(0.5) != 0 {
		t.Fatal("empty hist should return zeros")
	}
	if h.CDF([]int{5})[0] != 0 {
		t.Fatal("empty CDF should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("app", "speedup")
	tb.Row("labyrinth", 2.98)
	tb.Row("vacation", 1.18)
	out := tb.String()
	if !strings.Contains(out, "labyrinth") || !strings.Contains(out, "2.980") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4", len(lines))
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Fatalf("separator line missing: %q", lines[1])
	}
}

func TestRatioAndPct(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Error("Ratio broken")
	}
	if Ratio(1, 0) != 0 {
		t.Error("Ratio must guard division by zero")
	}
	if Pct(0.25) != "25.0%" {
		t.Errorf("Pct = %q", Pct(0.25))
	}
}

func TestBarChart(t *testing.T) {
	c := NewBarChart("%")
	c.Bar("labyrinth", 75.2)
	c.Bar("kmeans", 0)
	c.Bar("tiny", 0.5)
	out := c.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[0], "█") || !strings.Contains(lines[0], "75.20%") {
		t.Fatalf("bar line wrong: %q", lines[0])
	}
	if strings.Contains(lines[1], "█") {
		t.Fatalf("zero bar should be empty: %q", lines[1])
	}
	// Non-zero values always get at least one cell.
	if !strings.Contains(lines[2], "█") {
		t.Fatalf("tiny bar should be visible: %q", lines[2])
	}
	if (&BarChart{}).String() != "" {
		t.Fatal("empty chart should render nothing")
	}
}
