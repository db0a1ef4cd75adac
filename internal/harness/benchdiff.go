package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Bench-trajectory regression checking: `hintm-bench benchdiff` (and the
// `make bench-diff` target) compares a freshly produced BENCH_results.json
// against the committed baseline and fails when a headline metric moved
// the wrong way by more than a relative tolerance. The simulator is
// deterministic for a fixed seed, so on an unchanged tree the diff is
// exactly zero; the tolerance exists to let intentional modelling changes
// land without churning the baseline for sub-noise drift.

// wallTolerance widens the metric tolerance for wall-clock comparisons:
// at least 50%, and never tighter than 10x the headline tolerance.
func wallTolerance(tolerance float64) float64 {
	wt := tolerance * 10
	if wt < 0.5 {
		wt = 0.5
	}
	return wt
}

// DefaultMinWallSeconds is the default for DiffOptions.MinWallSeconds: the
// shortest baseline wall time worth comparing in relative terms. A fully
// store-warm run completes in milliseconds, where a relative gate measures
// scheduler jitter, not performance.
const DefaultMinWallSeconds = 0.05

// DiffOptions tunes DiffBenchResults.
type DiffOptions struct {
	// Tolerance is the relative gate on the deterministic headline metrics:
	// a higher-is-better metric regresses when cur < base*(1-Tolerance); a
	// drifting metric when it moves more than Tolerance from base in either
	// direction. Wall-time gates use wallTolerance(Tolerance).
	Tolerance float64
	// MinWallSeconds is the shortest baseline wall time gated in relative
	// terms (0 = DefaultMinWallSeconds). Lower it to gate fast smoke grids;
	// raise it on noisy shared runners.
	MinWallSeconds float64
}

// ReadBenchResults decodes and validates one BENCH_results.json.
func ReadBenchResults(r io.Reader) (*BenchResults, error) {
	var b BenchResults
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("bench results: %w", err)
	}
	if b.Schema != BenchResultsSchema {
		return nil, fmt.Errorf("bench results: schema %q, want %q (re-run hintm-bench to regenerate)",
			b.Schema, BenchResultsSchema)
	}
	return &b, nil
}

// higherIsBetter lists the FigureHeadline metrics where a drop is a
// regression; the remaining metrics are workload properties (capacity-time
// fractions, safe-access fractions) where any large move in either
// direction means the model changed and the baseline must be looked at.
var higherIsBetter = []struct {
	name string
	get  func(*FigureHeadline) float64
}{
	{"geomeanSpeedup", func(h *FigureHeadline) float64 { return h.GeomeanSpeedup }},
	{"geomeanSpeedupInf", func(h *FigureHeadline) float64 { return h.GeomeanSpeedupInf }},
	{"meanCapAbortReduction", func(h *FigureHeadline) float64 { return h.MeanCapAbortReduction }},
	{"meanStaticSafeFrac", func(h *FigureHeadline) float64 { return h.MeanStaticSafeFrac }},
	{"meanDynSafeFrac", func(h *FigureHeadline) float64 { return h.MeanDynSafeFrac }},
}

var drifting = []struct {
	name string
	get  func(*FigureHeadline) float64
}{
	{"meanCapacityTime", func(h *FigureHeadline) float64 { return h.MeanCapacityTime }},
	{"meanSafeReadsBlock", func(h *FigureHeadline) float64 { return h.MeanSafeReadsBlock }},
	{"meanFracOverP8Full", func(h *FigureHeadline) float64 { return h.MeanFracOverP8Full }},
}

// DiffBenchResults compares cur against base and returns one line per
// regression (empty = clean).
func DiffBenchResults(base, cur *BenchResults, o DiffOptions) []string {
	tolerance := o.Tolerance
	minWall := o.MinWallSeconds
	if minWall <= 0 {
		minWall = DefaultMinWallSeconds
	}
	var out []string
	if base.Seed != cur.Seed {
		out = append(out, fmt.Sprintf("  seed mismatch: baseline %d vs current %d (not comparable)", base.Seed, cur.Seed))
		return out
	}
	if base.Scale != cur.Scale || base.LargeScale != cur.LargeScale {
		out = append(out, fmt.Sprintf("  scale mismatch: baseline %s/%s vs current %s/%s (not comparable)",
			base.Scale, base.LargeScale, cur.Scale, cur.LargeScale))
		return out
	}

	// Wall time is noisy (shared CI boxes, cold caches), so it gets a much
	// wider gate than the deterministic headline metrics: flag only when the
	// run slowed beyond wallTolerance(tolerance) — a real perf regression,
	// not scheduler jitter. Only baselines above minWall are gated.
	wallTol := wallTolerance(tolerance)
	if base.WallSeconds >= minWall && cur.WallSeconds > base.WallSeconds*(1+wallTol) {
		out = append(out, fmt.Sprintf("  wallSeconds %.2f -> %.2f (+%.0f%%, tolerance %.0f%%)",
			base.WallSeconds, cur.WallSeconds,
			(cur.WallSeconds/base.WallSeconds-1)*100, wallTol*100))
	}

	figs := make([]string, 0, len(base.Figures))
	for name := range base.Figures {
		figs = append(figs, name)
	}
	sort.Strings(figs)
	for _, name := range figs {
		b := base.Figures[name]
		c, ok := cur.Figures[name]
		if !ok {
			out = append(out, fmt.Sprintf("  %s: figure missing from current results", name))
			continue
		}
		if c.Rows != b.Rows {
			out = append(out, fmt.Sprintf("  %s: rows %d -> %d (grid changed)", name, b.Rows, c.Rows))
		}
		if c.Failed > b.Failed {
			out = append(out, fmt.Sprintf("  %s: failed rows %d -> %d", name, b.Failed, c.Failed))
		}
		for _, m := range higherIsBetter {
			bv, cv := m.get(b), m.get(c)
			if bv > 0 && cv < bv*(1-tolerance) {
				out = append(out, fmt.Sprintf("  %s: %s %.4f -> %.4f (-%.1f%%, tolerance %.1f%%)",
					name, m.name, bv, cv, (1-cv/bv)*100, tolerance*100))
			}
		}
		for _, m := range drifting {
			bv, cv := m.get(b), m.get(c)
			if bv > 0 && (cv < bv*(1-tolerance) || cv > bv*(1+tolerance)) {
				out = append(out, fmt.Sprintf("  %s: %s drifted %.4f -> %.4f (beyond %.1f%% tolerance)",
					name, m.name, bv, cv, tolerance*100))
			}
		}
	}

	// Errors appearing where the baseline had none are regressions even if
	// the surviving rows' aggregates look healthy.
	errNames := make([]string, 0, len(cur.Errors))
	for name := range cur.Errors {
		errNames = append(errNames, name)
	}
	sort.Strings(errNames)
	for _, name := range errNames {
		if base.Errors[name] == "" {
			out = append(out, fmt.Sprintf("  %s: new error: %s", name, cur.Errors[name]))
		}
	}
	return out
}
