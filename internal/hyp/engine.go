package hyp

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"hintm/internal/harness"
	"hintm/internal/sim"
	"hintm/internal/stats"
	"hintm/internal/workloads"
)

// Engine executes hypothesis grids. Each cell — one (level, seed) pair —
// runs under its own harness.Runner because levels may perturb runner
// options (seed, fault plan) that are fixed per Runner; the runners share
// the engine's content-addressed store, so a cell that has ever completed
// anywhere (an earlier run, hintm-bench, CI) is recalled instead of
// simulated. Cell execution order is irrelevant to the output: the
// evaluation is assembled by (level, seed) index and every simulation is
// self-contained and seeded.
type Engine struct {
	// Opts carries the scale, store, trace, and worker configuration.
	// Seed and Faults act as the base the levels perturb (hypothesis specs
	// override Seed per cell from their seed list).
	Opts harness.Options
}

// Cell is one measured grid point.
type Cell struct {
	Level string
	Seed  uint64
	// Request is the cell's resolved simulation request (after the level's
	// Apply), recorded for the findings' method section.
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
	// SimRuns counts actual simulator invocations across the grid — 0 on
	// a fully warm store, the property the check workflow asserts.
	SimRuns uint64
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
	e := &Evaluation{Spec: spec, Scale: g.Opts.Scale}
	e.Cells = make([][]Cell, len(spec.Levels))
	for l := range spec.Levels {
		e.Cells[l] = make([]Cell, len(spec.Seeds))
	}

	// One bounded pool for the whole grid; each cell's private Runner gets
	// a single worker slot so total concurrency is the engine's -workers.
	workers := g.Opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	errs := make([]error, len(spec.Levels)*len(spec.Seeds))
	var simRuns sync.Mutex
	var wg sync.WaitGroup
	for l, level := range spec.Levels {
		for s, seed := range spec.Seeds {
			wg.Add(1)
			go func(l, s int, level Level, seed uint64) {
				defer wg.Done()
				select {
				case sem <- struct{}{}:
					defer func() { <-sem }()
				case <-ctx.Done():
					errs[l*len(spec.Seeds)+s] = ctx.Err()
					return
				}
				cell, runs, err := g.runCell(ctx, spec, level, seed)
				if err != nil {
					errs[l*len(spec.Seeds)+s] = fmt.Errorf("%s: level %s seed %d: %w", spec.Name, level.Name, seed, err)
					return
				}
				simRuns.Lock()
				e.SimRuns += runs
				simRuns.Unlock()
				e.Cells[l][s] = cell
			}(l, s, level, seed)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	e.Outcome = spec.Judge(e)
	return e, nil
}

// runCell executes one grid point through a dedicated single-worker
// harness.Runner sharing the engine's store.
func (g *Engine) runCell(ctx context.Context, spec *Spec, level Level, seed uint64) (Cell, uint64, error) {
	opts := g.Opts
	opts.Seed = seed
	opts.Workers = 1
	req := spec.Base
	req.Scale = g.Opts.Scale
	if level.Apply != nil {
		level.Apply(&req, &opts)
	}
	r := harness.NewRunner(opts)
	res, err := r.Run(ctx, req)
	if err != nil {
		return Cell{}, 0, err
	}
	cell := Cell{
		Level:   level.Name,
		Seed:    seed,
		Request: req,
		Result:  res,
		Values:  make([]float64, len(spec.Metrics)),
	}
	for m, metric := range spec.Metrics {
		cell.Values[m] = metric.Extract(res)
	}
	return cell, r.SimRuns(), nil
}
