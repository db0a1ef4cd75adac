package harness

import (
	"encoding/json"
	"fmt"
	"io"
)

// Bench-trajectory regression checking: `hintm-bench benchdiff` (and the
// `make bench-diff` target) compares a freshly produced BENCH_results.json
// against the committed baseline and fails when a headline metric moved
// the wrong way by more than a relative tolerance, or when a store-free
// run's production counts (cold runs, derived cells, simulated cycles)
// changed at all. The simulator is deterministic for a fixed seed, so on an
// unchanged tree the diff is exactly zero; the tolerance exists to let
// intentional modelling changes land without churning the baseline for
// sub-noise drift.

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

	// A store-free run's production counts are a function of the tree, so
	// any change to them is a change in what the grid simulates.
	if !base.Store && !cur.Store {
		for _, c := range []struct {
			name      string
			base, cur uint64
		}{{"coldRuns", base.ColdRuns, cur.ColdRuns}, {"derived", base.Derived, cur.Derived}, {"simCycles", base.SimCycles, cur.SimCycles}} {
			if c.base != c.cur {
				out = append(out, fmt.Sprintf("  %s %d -> %d (production changed; regenerate the baseline if intended)",
					c.name, c.base, c.cur))
			}
		}
	}

	curFigs := make(map[string]figure)
	for _, f := range cur.figures() {
		curFigs[f.name] = f
	}
	for _, b := range base.figures() {
		c, ok := curFigs[b.name]
		if !ok {
			out = append(out, fmt.Sprintf("  %s: figure missing from current results", b.name))
			continue
		}
		if c.rows != b.rows {
			out = append(out, fmt.Sprintf("  %s: rows %d -> %d (grid changed)", b.name, b.rows, c.rows))
		}
		if c.sec.Failed > b.sec.Failed {
			out = append(out, fmt.Sprintf("  %s: failed rows %d -> %d", b.name, b.sec.Failed, c.sec.Failed))
		}
		for i, m := range b.higher {
			bv, cv := m.v, c.higher[i].v
			if bv > 0 && cv < bv*(1-tolerance) {
				out = append(out, fmt.Sprintf("  %s: %s %.4f -> %.4f (-%.1f%%, tolerance %.1f%%)",
					b.name, m.name, bv, cv, (1-cv/bv)*100, tolerance*100))
			}
		}
		for i, m := range b.drifting {
			bv, cv := m.v, c.drifting[i].v
			if bv > 0 && (cv < bv*(1-tolerance) || cv > bv*(1+tolerance)) {
				out = append(out, fmt.Sprintf("  %s: %s drifted %.4f -> %.4f (beyond %.1f%% tolerance)",
					b.name, m.name, bv, cv, tolerance*100))
			}
		}
		// An error where the baseline had none is a regression even if
		// the surviving rows' aggregates look healthy.
		if c.sec.Error != "" && b.sec.Error == "" {
			out = append(out, fmt.Sprintf("  %s: new error: %s", b.name, c.sec.Error))
		}
	}
	return out
}
