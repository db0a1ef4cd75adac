// Package harness drives the paper's experiments end to end: it builds each
// workload, runs the static classification pass, simulates every (HTM ×
// hint-mode) configuration the evaluation needs, and reduces the results
// into the rows/series of each figure (Fig. 1, 4, 5, 6, 7, 8).
//
// Simulations are described by exported Request values and executed by a
// parallel scheduler (see sched.go): figures submit their whole request
// grid up front via RunAll, a bounded worker pool runs the grid
// concurrently, and single-flight deduplication guarantees each distinct
// Request simulates at most once per Runner (a request whose run an
// equivalent request's run proves is derived, not simulated). The hintm-bench CLI and the
// repository's benchmark suite are thin wrappers around this package.
package harness

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"hintm/internal/fault"
	"hintm/internal/ir"
	"hintm/internal/store"
	"hintm/internal/workloads"
)

// Options configures a Runner.
type Options struct {
	// Scale is used for the P8 experiments (Fig. 1, 4, 5, 6).
	Scale workloads.Scale
	// LargeScale is used for the capacity-pressure studies on larger HTMs
	// (Fig. 7, 8), mirroring the paper's larger inputs.
	LargeScale workloads.Scale
	// Filter restricts to the named workloads (nil = all).
	Filter []string
	// Seed drives the PRNG streams of every request that leaves its own
	// Request.Seed zero.
	Seed uint64
	// Workers bounds how many simulations run concurrently
	// (0 = runtime.GOMAXPROCS(0)). Results are deterministic for any
	// worker count: each simulation is self-contained and seeded.
	Workers int
	// Faults is the fault-injection plan of every request that leaves its
	// own Request.Faults zero (zero value = no injection); campaigns replay
	// bit-identically for a given (plan, seed) pair.
	Faults fault.Plan
	// WatchdogCycles arms the sim livelock watchdog per run (0 = off).
	WatchdogCycles int64
	// MaxCycles hard-caps each run's simulated clock (0 = no cap).
	MaxCycles int64
	// Store, when non-nil, is the content-addressed result store the
	// scheduler consults before simulating and persists into afterwards:
	// a warm store turns figure regeneration into a pure, byte-identical
	// reduction, and lets separate processes share completed runs.
	Store *store.Store
}

// DefaultOptions mirrors the paper's setup.
func DefaultOptions() Options {
	return Options{Scale: workloads.Medium, LargeScale: workloads.Large, Seed: 1}
}

// QuickOptions shrinks everything for tests and smoke runs.
func QuickOptions() Options {
	return Options{Scale: workloads.Small, LargeScale: workloads.Small, Seed: 1}
}

// Runner schedules simulations and caches classified modules and run
// results across figures. It is safe for concurrent use: Run/RunAll may be
// called from any number of goroutines.
type Runner struct {
	opts Options
	// sem is the worker pool: one slot per concurrently-executing
	// simulation.
	sem chan struct{}

	// execs counts actual result-producing simulator invocations; store
	// hits, memoized recalls and derived cells are excluded, so the "warm
	// re-render runs nothing" assertions and the per-cell accounting both
	// stay exact.
	execs atomic.Uint64
	// simCycles totals the simulated cycles of those invocations, the
	// numerator of the BENCH_results.json simulated-cycles-per-second
	// headline.
	simCycles atomic.Uint64
	// storeHits counts requests answered from the content-addressed store
	// (the RenderAll run summary reads it through Stats).
	storeHits atomic.Uint64
	// derived counts requests answered by another request's run (see
	// Runner.derive).
	derived atomic.Uint64

	mu   sync.Mutex
	mods map[moduleKey]*flight[*ir.Module]
	runs map[Request]*flight[cell]
	// fams lists each family's registered requests in registration order,
	// keyed by Request.family.
	fams map[Request][]member
}

// RunStats is a point-in-time snapshot of the runner's execution counters.
// Differences of two snapshots attribute work to a span of calls (RenderAll
// and BenchResults use that for their per-figure breakdowns).
type RunStats struct {
	// SimRuns counts simulations executed; StoreHits counts requests
	// answered from the content-addressed store; Derived counts requests
	// answered by an equivalent run of their family without simulating.
	SimRuns   uint64
	StoreHits uint64
	Derived   uint64

	// PrefixRuns, ForkedRuns, ForkSeconds and SharedCycles are always zero,
	// and ColdRuns always equals SimRuns. They exist only so the benchmark
	// module, which still reads them, compiles; the change that next edits
	// that module removes them.
	PrefixRuns   uint64
	ForkedRuns   uint64
	ForkSeconds  float64
	SharedCycles uint64
}

// ColdRuns returns SimRuns, the simulations executed (derived cells are
// not among them); see the note on RunStats.PrefixRuns.
func (s RunStats) ColdRuns() uint64 { return s.SimRuns }

// Sub returns the counter deltas s - o (s taken after o).
func (s RunStats) Sub(o RunStats) RunStats {
	return RunStats{SimRuns: s.SimRuns - o.SimRuns, StoreHits: s.StoreHits - o.StoreHits, Derived: s.Derived - o.Derived}
}

// Stats snapshots the runner's execution counters.
func (r *Runner) Stats() RunStats {
	return RunStats{SimRuns: r.execs.Load(), StoreHits: r.storeHits.Load(), Derived: r.derived.Load()}
}

// NewRunner returns a runner for the given options.
func NewRunner(opts Options) *Runner {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		opts: opts,
		sem:  make(chan struct{}, workers),
		mods: make(map[moduleKey]*flight[*ir.Module]),
		runs: make(map[Request]*flight[cell]),
		fams: make(map[Request][]member),
	}
}

// specs returns the selected workloads.
func (r *Runner) specs() ([]*workloads.Spec, error) {
	if len(r.opts.Filter) == 0 {
		return workloads.All(), nil
	}
	var out []*workloads.Spec
	for _, name := range r.opts.Filter {
		s, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// reduction computes 1 - v/base, the paper's "X% of aborts eliminated".
func reduction(base, v uint64) float64 {
	if base == 0 {
		return 0
	}
	red := 1 - float64(v)/float64(base)
	if red < 0 {
		return 0
	}
	return red
}

// speedup computes base/v cycles.
func speedup(base, v int64) float64 {
	if v == 0 {
		return 0
	}
	return float64(base) / float64(v)
}

// geomean over positive values.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		if v <= 0 {
			v = 1e-9
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

// Title renders a section header.
func Title(s string) string {
	return fmt.Sprintf("\n== %s ==\n%s\n", s, strings.Repeat("-", len(s)+6))
}
