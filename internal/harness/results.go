package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"hintm/internal/stats"
)

// BenchResultsSchema versions the results document; bump it when a field
// changes meaning so downstream tooling can detect stale files.
// v2 added per-figure wall time and whole-run simulated-cycle throughput;
// v3 added the run-production breakdown (cold / store-hit counts) per figure
// and for the whole run; v4 dropped the per-figure wall time and the
// prefix-sharing counters; v5 made the document the grid run's one
// reduction: each figure's section holds its rows, the aggregates the text
// prints, its production counts and its error. ReadBenchResults accepts
// only the current schema.
const BenchResultsSchema = "hintm-bench-results/v5"

// BenchResults is the one document of a grid run. The text figures are a
// rendering of it, `hintm-bench all` writes it to -results, and benchdiff
// compares two of them.
type BenchResults struct {
	Schema     string `json:"schema"`
	Scale      string `json:"scale"`
	LargeScale string `json:"largeScale"`
	Seed       uint64 `json:"seed"`
	// Store reports whether the run consulted a result store. Only a
	// store-free run's production counts are a function of the tree.
	Store bool `json:"store,omitempty"`
	// WallSeconds is the whole run's wall-clock time; the caller stamps it
	// (the harness itself avoids wall-clock reads for determinism).
	WallSeconds float64 `json:"wallSeconds"`
	// SimCycles is the total simulated cycles this process actually executed
	// (store recalls and derived cells contribute nothing); SimCyclesPerSec
	// divides it by WallSeconds.
	SimCycles       uint64  `json:"simCycles"`
	SimCyclesPerSec float64 `json:"simCyclesPerSec,omitempty"`
	// ColdRuns, Derived and StoreHits are the runner's totals: simulations
	// executed, cells answered by an equivalent run, and store recalls.
	ColdRuns  uint64 `json:"coldRuns"`
	Derived   uint64 `json:"derived"`
	StoreHits uint64 `json:"storeHits"`

	// One section per figure built (nil = not built).
	Fig1 *Fig1Section  `json:"fig1,omitempty"`
	Fig4 *SweepSection `json:"fig4,omitempty"`
	Fig5 *Fig5Section  `json:"fig5,omitempty"`
	Fig6 *Fig6Section  `json:"fig6,omitempty"`
	Fig7 *SweepSection `json:"fig7,omitempty"`
	Fig8 *SweepSection `json:"fig8,omitempty"`
}

// Section is what every figure's section holds besides its rows and
// aggregates.
type Section struct {
	// Failed counts the rows whose runs did not complete; the aggregates
	// cover the others.
	Failed int `json:"failed"`
	// ColdRuns, Derived and StoreHits count how the figure's cells were
	// produced while it was built. A cell shared with an earlier figure
	// counts there, so a later figure showing zeros means memoization
	// works, not that it was free.
	ColdRuns  uint64 `json:"coldRuns"`
	Derived   uint64 `json:"derived"`
	StoreHits uint64 `json:"storeHits"`
	// Error is the figure's joined error text ("" = every cell completed).
	Error string `json:"error,omitempty"`
	err   error
}

// Fig1Section is paper Fig. 1's section.
type Fig1Section struct {
	Section
	Rows []Fig1Row `json:"rows"`
	// Mean averages the fraction columns over the completed rows; its
	// count columns are zero.
	Mean Fig1Row `json:"mean"`
}

// SweepSection is the section of a hint sweep: Fig. 4, 7 or 8.
type SweepSection struct {
	Section
	Rows []SweepRow `json:"rows"`
	// Mean averages the capacity-abort reductions of HinTM-st, HinTM-dyn
	// and HinTM over the completed rows whose baseline had capacity aborts.
	// Geomean holds the geometric means of the four speedups over the
	// completed rows.
	Mean    SweepRow `json:"mean"`
	Geomean SweepRow `json:"geomean"`
}

// Fig5Section is paper Fig. 5's section.
type Fig5Section struct {
	Section
	Rows []Fig5Row `json:"rows"`
	// Mean averages the static and dynamic fractions over the completed
	// rows; its unsafe fraction is the remainder.
	Mean Fig5Row `json:"mean"`
}

// Fig6Section is paper Fig. 6's section.
type Fig6Section struct {
	Section
	Series []Fig6Series `json:"series"`
	// MeanFracOverP8Full is the mean fraction of HinTM transactions still
	// larger than the 64-block P8 buffer.
	MeanFracOverP8Full float64 `json:"meanFracOverP8Full"`
}

// aggregator is a section that reduces its rows into its aggregates.
type aggregator interface{ aggregate() *Section }

func (s *Fig1Section) aggregate() *Section {
	var ct, sp, sb, srp, srb []float64
	for _, row := range s.Rows {
		if row.Failed {
			s.Failed++
			continue
		}
		ct = append(ct, row.CapacityTime)
		sp = append(sp, row.SafePages)
		sb = append(sb, row.SafeBlocks)
		srp = append(srp, row.SafeReadsPage)
		srb = append(srb, row.SafeReadsBlock)
	}
	s.Mean = Fig1Row{App: "MEAN", CapacityTime: stats.Mean(ct), SafePages: stats.Mean(sp), SafeBlocks: stats.Mean(sb),
		SafeReadsPage: stats.Mean(srp), SafeReadsBlock: stats.Mean(srb)}
	return &s.Section
}

func (s *SweepSection) aggregate() *Section {
	var rs, rd, rf, ss, sd, sf, si []float64
	for _, row := range s.Rows {
		if row.Failed {
			s.Failed++
			continue
		}
		if row.BaseCapacity > 0 {
			rs = append(rs, row.CapRedSt)
			rd = append(rd, row.CapRedDyn)
			rf = append(rf, row.CapRedFull)
		}
		ss = append(ss, row.SpeedupSt)
		sd = append(sd, row.SpeedupDyn)
		sf = append(sf, row.SpeedupFull)
		si = append(si, row.SpeedupInf)
	}
	s.Mean = SweepRow{App: "MEAN", CapRedSt: stats.Mean(rs), CapRedDyn: stats.Mean(rd), CapRedFull: stats.Mean(rf)}
	s.Geomean = SweepRow{App: "GEOMEAN", SpeedupSt: geomean(ss), SpeedupDyn: geomean(sd),
		SpeedupFull: geomean(sf), SpeedupInf: geomean(si)}
	return &s.Section
}

func (s *Fig5Section) aggregate() *Section {
	var sf, df []float64
	for _, row := range s.Rows {
		if row.Failed {
			s.Failed++
			continue
		}
		sf = append(sf, row.StaticFrac)
		df = append(df, row.DynFrac)
	}
	st, dyn := stats.Mean(sf), stats.Mean(df)
	s.Mean = Fig5Row{App: "MEAN", StaticFrac: st, DynFrac: dyn, UnsafeFrac: 1 - st - dyn}
	return &s.Section
}

func (s *Fig6Section) aggregate() *Section {
	var over []float64
	for _, series := range s.Series {
		if series.Failed {
			s.Failed++
			continue
		}
		if n := len(series.Full); n > 0 {
			over = append(over, 1-series.Full[n-1])
		}
	}
	s.MeanFracOverP8Full = stats.Mean(over)
	return &s.Section
}

// figureNames lists the document's figures in rendering order.
var figureNames = []string{"fig1", "fig4", "fig5", "fig6", "fig7", "fig8"}

// BenchResults builds the results document in one pass: the section of
// each named figure (every figure when names is empty), then the run's
// totals. A figure whose cells fail still gets its section, with the
// failed rows marked and the error recorded there (see Err); the returned
// error is only a cancelled context or an unknown figure name.
func (r *Runner) BenchResults(ctx context.Context, names ...string) (*BenchResults, error) {
	if len(names) == 0 {
		names = figureNames
	}
	doc := &BenchResults{
		Schema:     BenchResultsSchema,
		Scale:      r.opts.Scale.String(),
		LargeScale: r.opts.LargeScale.String(),
		Seed:       r.opts.Seed,
		Store:      r.opts.Store != nil,
	}
	for _, name := range names {
		before := r.Stats()
		var sec aggregator
		var err error
		switch name {
		case "fig1":
			doc.Fig1 = &Fig1Section{}
			doc.Fig1.Rows, err = r.Fig1(ctx)
			sec = doc.Fig1
		case "fig4":
			doc.Fig4 = &SweepSection{}
			doc.Fig4.Rows, err = r.Fig4(ctx)
			sec = doc.Fig4
		case "fig5":
			doc.Fig5 = &Fig5Section{}
			doc.Fig5.Rows, err = r.Fig5(ctx)
			sec = doc.Fig5
		case "fig6":
			doc.Fig6 = &Fig6Section{}
			doc.Fig6.Series, err = r.Fig6(ctx)
			sec = doc.Fig6
		case "fig7":
			doc.Fig7 = &SweepSection{}
			doc.Fig7.Rows, err = r.Fig7(ctx)
			sec = doc.Fig7
		case "fig8":
			doc.Fig8 = &SweepSection{}
			doc.Fig8.Rows, err = r.Fig8(ctx)
			sec = doc.Fig8
		default:
			return nil, fmt.Errorf("unknown figure %q", name)
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		s := sec.aggregate()
		d := r.Stats().Sub(before)
		s.ColdRuns, s.Derived, s.StoreHits = d.SimRuns, d.Derived, d.StoreHits
		if err != nil {
			s.err, s.Error = err, err.Error()
		}
	}
	st := r.Stats()
	doc.SimCycles = r.simCycles.Load()
	doc.ColdRuns, doc.Derived, doc.StoreHits = st.SimRuns, st.Derived, st.StoreHits
	return doc, nil
}

// figure is one built section of a document, under its name.
type figure struct {
	name string
	sec  *Section
}

// figures lists the document's built sections in rendering order.
func (b *BenchResults) figures() []figure {
	var out []figure
	if b.Fig1 != nil {
		out = append(out, figure{"fig1", &b.Fig1.Section})
	}
	if b.Fig4 != nil {
		out = append(out, figure{"fig4", &b.Fig4.Section})
	}
	if b.Fig5 != nil {
		out = append(out, figure{"fig5", &b.Fig5.Section})
	}
	if b.Fig6 != nil {
		out = append(out, figure{"fig6", &b.Fig6.Section})
	}
	if b.Fig7 != nil {
		out = append(out, figure{"fig7", &b.Fig7.Section})
	}
	if b.Fig8 != nil {
		out = append(out, figure{"fig8", &b.Fig8.Section})
	}
	return out
}

// Err joins the built figures' errors in order (nil when every cell
// completed). A decoded document carries only the error texts.
func (b *BenchResults) Err() error {
	var errs []error
	for _, f := range b.figures() {
		errs = append(errs, f.sec.err)
	}
	return joinErrors(errs)
}

// Render prints the document's figures in order, then the run summary.
func (b *BenchResults) Render(w io.Writer) {
	b.renderFigures(w)
	fmt.Fprint(w, Title("Run summary: how each figure's simulations were produced"))
	tb := stats.NewTable("figure", "cold", "derived", "store-hit")
	var total Section
	for _, f := range b.figures() {
		s := f.sec
		tb.Row(f.name, s.ColdRuns, s.Derived, s.StoreHits)
		total.ColdRuns += s.ColdRuns
		total.Derived += s.Derived
		total.StoreHits += s.StoreHits
	}
	tb.Row("TOTAL", total.ColdRuns, total.Derived, total.StoreHits)
	tb.Render(w)
}

// WriteJSON serializes the document as indented JSON; its field order is
// fixed, so a deterministic run writes deterministic bytes.
func (b *BenchResults) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
