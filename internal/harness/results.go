package harness

import (
	"context"
	"encoding/json"
	"io"

	"hintm/internal/stats"
)

// BenchResultsSchema versions the BENCH_results.json layout; bump it when a
// field changes meaning so downstream tooling can detect stale files.
// v2 added per-figure wall time and whole-run simulated-cycle throughput;
// v3 added the run-production breakdown (cold / store-hit counts) per figure
// and for the whole run; v4 dropped the per-figure wall time (the grid is
// submitted up front, so it timed only a reduction) and the prefix-sharing
// counters. ReadBenchResults accepts only the current schema.
const BenchResultsSchema = "hintm-bench-results/v4"

// FigureHeadline is one figure's machine-readable summary: the headline
// aggregate numbers a regression checker or dashboard wants, without the
// per-app rows (those live in `hintm-bench export`).
type FigureHeadline struct {
	// Rows is the number of app rows the figure produced; Failed counts the
	// rows whose underlying runs did not complete. Means/geomeans cover the
	// surviving rows only.
	Rows   int `json:"rows"`
	Failed int `json:"failed"`

	// Production breakdown (v3): how this figure's simulations were obtained
	// while it rendered — cold runs the simulator executed, content-addressed
	// store recalls, and cells derived from an equivalent run without
	// simulating (ColdRuns never counts those). These are deltas over the
	// figure's span (≈0 when an earlier figure already ran the cells: shared
	// runs attribute to the first figure that needed them) and are
	// measurement metadata, never part of the deterministic result bytes.
	ColdRuns  uint64 `json:"coldRuns,omitempty"`
	StoreHits uint64 `json:"storeHits,omitempty"`
	Derived   uint64 `json:"derived,omitempty"`

	// GeomeanSpeedup is the HinTM-full speedup geomean over the figure's
	// baseline HTM; GeomeanSpeedupInf the InfCap upper bound.
	GeomeanSpeedup    float64 `json:"geomeanSpeedup,omitempty"`
	GeomeanSpeedupInf float64 `json:"geomeanSpeedupInf,omitempty"`
	// MeanCapAbortReduction is the mean HinTM-full capacity-abort reduction
	// (apps with baseline capacity aborts only).
	MeanCapAbortReduction float64 `json:"meanCapAbortReduction,omitempty"`
	// MeanCapacityTime is Fig. 1's mean runtime fraction lost to capacity
	// aborts; MeanSafeReadsBlock its mean safe-read fraction at 64 B.
	MeanCapacityTime   float64 `json:"meanCapacityTime,omitempty"`
	MeanSafeReadsBlock float64 `json:"meanSafeReadsBlock,omitempty"`
	// MeanStaticSafeFrac/MeanDynSafeFrac are Fig. 5's access-class means.
	MeanStaticSafeFrac float64 `json:"meanStaticSafeFrac,omitempty"`
	MeanDynSafeFrac    float64 `json:"meanDynSafeFrac,omitempty"`
	// MeanFracOverP8Full is Fig. 6's mean fraction of HinTM transactions
	// still exceeding the 64-block P8 capacity.
	MeanFracOverP8Full float64 `json:"meanFracOverP8Full,omitempty"`
}

// BenchResults is the machine-readable run summary hintm-bench writes next
// to its text figures (satellite of the observability layer: CI and scripts
// diff these instead of scraping tables).
type BenchResults struct {
	Schema     string `json:"schema"`
	Scale      string `json:"scale"`
	LargeScale string `json:"largeScale"`
	Seed       uint64 `json:"seed"`
	// WallSeconds is the whole run's wall-clock time; the caller stamps it
	// (the harness itself avoids wall-clock reads for determinism).
	WallSeconds float64 `json:"wallSeconds"`
	// SimCycles is the total simulated cycles this process actually executed
	// (store recalls and derived cells contribute nothing); SimCyclesPerSec
	// divides it by WallSeconds — the v2 throughput headline the perf CI
	// watches.
	SimCycles       uint64  `json:"simCycles,omitempty"`
	SimCyclesPerSec float64 `json:"simCyclesPerSec,omitempty"`

	// Whole-run production breakdown (v3): runner-global totals over every
	// cell this process produced. ColdRuns counts executed simulations only;
	// Derived counts the cells answered by an equivalent run instead.
	ColdRuns  uint64 `json:"coldRuns,omitempty"`
	StoreHits uint64 `json:"storeHits,omitempty"`
	Derived   uint64 `json:"derived,omitempty"`

	// Figures maps figure name → headline metrics.
	Figures map[string]*FigureHeadline `json:"figures"`
	// Errors maps figure name → joined error text for degraded figures.
	Errors map[string]string `json:"errors,omitempty"`
}

// BenchResults reduces every figure into headline metrics. Run after the
// figures have rendered, the memoized scheduler recalls every simulation, so
// the summary costs no extra runs; standalone it runs the full grid.
func (r *Runner) BenchResults(ctx context.Context) (*BenchResults, error) {
	out := &BenchResults{
		Schema:     BenchResultsSchema,
		Scale:      r.opts.Scale.String(),
		LargeScale: r.opts.LargeScale.String(),
		Seed:       r.opts.Seed,
		Figures:    make(map[string]*FigureHeadline),
		Errors:     make(map[string]string),
	}

	// Per-figure production breakdowns are measurement metadata, not
	// simulation state; the deterministic result bytes never see them.
	figStats := r.Stats()
	if rows, err := r.Fig1(ctx); !out.note(ctx, "fig1", err) {
		h := &FigureHeadline{}
		var ct, srb []float64
		for _, row := range rows {
			h.count(row.Failed)
			if !row.Failed {
				ct = append(ct, row.CapacityTime)
				srb = append(srb, row.SafeReadsBlock)
			}
		}
		h.MeanCapacityTime = stats.Mean(ct)
		h.MeanSafeReadsBlock = stats.Mean(srb)
		h.stamp(figStats, r.Stats())
		out.Figures["fig1"] = h
	}

	figStats = r.Stats()
	if rows, err := r.Fig4(ctx); !out.note(ctx, "fig4", err) {
		h := sweepHeadline(rows)
		h.stamp(figStats, r.Stats())
		out.Figures["fig4"] = h
	}

	figStats = r.Stats()
	if rows, err := r.Fig5(ctx); !out.note(ctx, "fig5", err) {
		h := &FigureHeadline{}
		var sf, df []float64
		for _, row := range rows {
			h.count(row.Failed)
			if !row.Failed {
				sf = append(sf, row.StaticFrac)
				df = append(df, row.DynFrac)
			}
		}
		h.MeanStaticSafeFrac = stats.Mean(sf)
		h.MeanDynSafeFrac = stats.Mean(df)
		h.stamp(figStats, r.Stats())
		out.Figures["fig5"] = h
	}

	figStats = r.Stats()
	if series, err := r.Fig6(ctx); !out.note(ctx, "fig6", err) {
		h := &FigureHeadline{}
		var over []float64
		for _, s := range series {
			h.count(s.Failed)
			if !s.Failed && len(s.Full) > 0 {
				over = append(over, 1-s.Full[len(s.Full)-1])
			}
		}
		h.MeanFracOverP8Full = stats.Mean(over)
		h.stamp(figStats, r.Stats())
		out.Figures["fig6"] = h
	}

	figStats = r.Stats()
	if rows, err := r.Fig7(ctx); !out.note(ctx, "fig7", err) {
		h := sweepHeadline(rows)
		h.stamp(figStats, r.Stats())
		out.Figures["fig7"] = h
	}

	figStats = r.Stats()
	if rows, err := r.Fig8(ctx); !out.note(ctx, "fig8", err) {
		h := sweepHeadline(rows)
		h.stamp(figStats, r.Stats())
		out.Figures["fig8"] = h
	}

	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if len(out.Errors) == 0 {
		out.Errors = nil
	}
	out.SimCycles = r.simCycles.Load()
	st := r.Stats()
	out.ColdRuns = st.SimRuns
	out.StoreHits = st.StoreHits
	out.Derived = st.Derived
	return out, nil
}

// stamp records the figure's production breakdown from the runner counter
// deltas over its rendering span.
func (h *FigureHeadline) stamp(before, after RunStats) {
	d := after.Sub(before)
	h.ColdRuns = d.SimRuns
	h.StoreHits = d.StoreHits
	h.Derived = d.Derived
}

// note records a figure failure; it reports whether the figure must be
// skipped outright (cancelled context). A degraded figure (err != nil but
// rows present) is recorded yet still summarized by the caller.
func (b *BenchResults) note(ctx context.Context, name string, err error) (skip bool) {
	if err != nil {
		b.Errors[name] = err.Error()
	}
	return ctx.Err() != nil
}

func (h *FigureHeadline) count(failed bool) {
	h.Rows++
	if failed {
		h.Failed++
	}
}

// sweepHeadline reduces a hint sweep (Figs. 4, 7 and 8).
func sweepHeadline(rows []SweepRow) *FigureHeadline {
	h := &FigureHeadline{}
	var sp, si, cr []float64
	for _, row := range rows {
		h.count(row.Failed)
		if !row.Failed {
			sp = append(sp, row.SpeedupFull)
			si = append(si, row.SpeedupInf)
			if row.BaseCapacity > 0 {
				cr = append(cr, row.CapRedFull)
			}
		}
	}
	h.GeomeanSpeedup = geomean(sp)
	h.GeomeanSpeedupInf = geomean(si)
	h.MeanCapAbortReduction = stats.Mean(cr)
	return h
}

// WriteJSON serializes the summary as indented JSON (map keys sort, so the
// output is deterministic for a deterministic run).
func (b *BenchResults) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
