package hyp

import (
	"context"
	"fmt"
	"sync"

	"hintm/internal/harness"
	"hintm/internal/sim"
	"hintm/internal/stats"
	"hintm/internal/workloads"
)

// Engine executes hypothesis grids on one harness.Runner for its whole
// life. Each cell — one (level, seed) pair — is a harness.Request that
// names its own seed (and, for fault sweeps, its own fault plan), so a
// spec's whole grid is one RunAll: the Runner's worker pool runs it, and
// its single-flight memo simulates a cell shared by two specs once. With a
// content-addressed store, a cell that has ever completed anywhere (an
// earlier run, hintm-bench, CI) is recalled instead of simulated. Cell
// execution order is irrelevant to the output: the evaluation is assembled
// by (level, seed) index and every simulation is self-contained and seeded.
type Engine struct {
	// Opts carries the scale, store, trace, and worker configuration of
	// the engine's Runner, built on first use. Every cell sets its spec's
	// seed, so Opts.Seed never reaches a cell; Opts.Faults is the plan of
	// every cell whose level sets none.
	Opts harness.Options

	once   sync.Once
	runner *harness.Runner
}

// Cell is one measured grid point.
type Cell struct {
	Level string
	Seed  uint64
	// Request is the cell's simulation request — the base at the engine's
	// scale and the cell's seed, after the level's Apply — recorded for the
	// findings' method section.
	Request harness.Request
	// Result is the simulation result the metrics were extracted from.
	Result *sim.Result
	// Values are the spec's metrics evaluated on Result, metric-indexed.
	Values []float64
}

// Evaluation is a fully measured hypothesis grid plus its verdict.
type Evaluation struct {
	Spec  *Spec
	Scale workloads.Scale
	// Cells is indexed [level][seed-position].
	Cells [][]Cell
	// SimRuns counts the simulator invocations this Run added to the
	// engine's Runner — 0 on a fully warm store (the property the check
	// workflow asserts), and 0 for a cell an earlier spec already ran.
	// Derived counts the cells this Run answered with an equivalent run of
	// another cell instead of simulating (see harness.RunStats.Derived).
	SimRuns uint64
	Derived uint64
	// Outcome is the judge's verdict over the measured grid.
	Outcome Outcome
}

// Values returns metric m's across-seed sample for level l, in seed order.
func (e *Evaluation) Values(l, m int) []float64 {
	out := make([]float64, len(e.Cells[l]))
	for i, c := range e.Cells[l] {
		out[i] = c.Values[m]
	}
	return out
}

// Summary aggregates metric m across seeds for level l.
func (e *Evaluation) Summary(l, m int) stats.Summary {
	return stats.Summarize(e.Values(l, m))
}

// Mean is shorthand for the across-seed mean of metric m at level l.
func (e *Evaluation) Mean(l, m int) float64 { return stats.Mean(e.Values(l, m)) }

// Effect returns the Cohen's-d effect size of metric m at level l versus
// the control level. ok is false when the effect is undefined (single-seed
// grids, zero pooled variance) — judges report INCONCLUSIVE in that case
// rather than inventing a number.
func (e *Evaluation) Effect(l, m int) (d float64, ok bool) {
	if l == 0 {
		return 0, false
	}
	return stats.CohenD(e.Values(l, m), e.Values(0, m))
}

// GrowthVsControl returns mean(level)/mean(control) for metric m, and
// ok=false when the control mean is zero (no growth factor exists; judges
// fall back to absolute thresholds or INCONCLUSIVE).
func (e *Evaluation) GrowthVsControl(l, m int) (ratio float64, ok bool) {
	base := e.Mean(0, m)
	if base == 0 {
		return 0, false
	}
	return e.Mean(l, m) / base, true
}

// Run measures spec's full grid and judges it. Any cell failure aborts the
// evaluation: a hypothesis cannot be honestly judged on a partial grid.
func (g *Engine) Run(ctx context.Context, spec *Spec) (*Evaluation, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := len(spec.Seeds)
	reqs := make([]harness.Request, 0, len(spec.Levels)*n)
	for _, level := range spec.Levels {
		for _, seed := range spec.Seeds {
			q := spec.Base
			q.Scale = g.Opts.Scale
			q.Seed = seed
			if level.Apply != nil {
				level.Apply(&q)
			}
			reqs = append(reqs, q)
		}
	}
	g.once.Do(func() { g.runner = harness.NewRunner(g.Opts) })
	before := g.runner.Stats()
	res, err := g.runner.RunAll(ctx, reqs)
	d := g.runner.Stats().Sub(before)
	e := &Evaluation{Spec: spec, Scale: g.Opts.Scale, SimRuns: d.SimRuns, Derived: d.Derived}
	e.Cells = make([][]Cell, len(spec.Levels))
	for l, level := range spec.Levels {
		e.Cells[l] = make([]Cell, n)
		for s, seed := range spec.Seeds {
			i := l*n + s
			if res[i] == nil {
				// RunAll joins failures in submission order, so the first
				// is this cell's.
				if j, ok := err.(interface{ Unwrap() []error }); ok {
					err = j.Unwrap()[0]
				}
				return nil, fmt.Errorf("%s: level %s seed %d: %w", spec.Name, level.Name, seed, err)
			}
			cell := Cell{Level: level.Name, Seed: seed, Request: reqs[i], Result: res[i],
				Values: make([]float64, len(spec.Metrics))}
			for m, metric := range spec.Metrics {
				cell.Values[m] = metric.Extract(res[i])
			}
			e.Cells[l][s] = cell
		}
	}
	e.Outcome = spec.Judge(e)
	return e, nil
}
