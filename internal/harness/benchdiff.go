package harness

import (
	"encoding/json"
	"fmt"
	"io"
)

// Bench-trajectory regression checking: `hintm-bench benchdiff` (and the
// `make bench-diff` target) compares a freshly produced results document
// against the committed paper-scale baseline. It checks only what no test
// pins: what the grid produced and how long it took. Every cell's result
// is pinned exactly by the golden (TestGolden), so the figures' rows and
// headlines are not compared here.

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
// regression (empty = clean). Two documents are comparable when they share
// seed and scales and neither run used a result store, whose recalls make
// the counts depend on what the store held. Then the production counts
// (cold runs, derived cells, simulated cycles) must be equal, since they
// are a function of the tree, and the wall time may grow by at most 50%:
// wall clocks are noisy, counts are not.
func DiffBenchResults(base, cur *BenchResults) []string {
	if base.Seed != cur.Seed || base.Scale != cur.Scale || base.LargeScale != cur.LargeScale || base.Store || cur.Store {
		return []string{fmt.Sprintf("  not comparable: baseline seed %d, %s/%s, store %t vs current seed %d, %s/%s, store %t",
			base.Seed, base.Scale, base.LargeScale, base.Store, cur.Seed, cur.Scale, cur.LargeScale, cur.Store)}
	}
	var out []string
	for _, c := range []struct {
		name      string
		base, cur uint64
	}{{"coldRuns", base.ColdRuns, cur.ColdRuns}, {"derived", base.Derived, cur.Derived}, {"simCycles", base.SimCycles, cur.SimCycles}} {
		if c.base != c.cur {
			out = append(out, fmt.Sprintf("  %s %d -> %d (production changed; regenerate the baseline if intended)",
				c.name, c.base, c.cur))
		}
	}
	if cur.WallSeconds > base.WallSeconds*1.5 {
		out = append(out, fmt.Sprintf("  wallSeconds %.2f -> %.2f (+%.0f%%, limit +50%%)",
			base.WallSeconds, cur.WallSeconds, (cur.WallSeconds/base.WallSeconds-1)*100))
	}
	return out
}
