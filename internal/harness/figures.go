package harness

import (
	"context"
	"fmt"
	"io"

	"hintm/internal/htm"
	"hintm/internal/sim"
	"hintm/internal/stats"
	"hintm/internal/workloads"
)

// Every figure follows the same shape: build the whole Request grid up
// front, submit it to the scheduler in one RunAll/gather call (so the
// worker pool can run the grid's independent simulations concurrently), and
// then reduce the per-request results into rows in deterministic workload
// order.
//
// Figures degrade gracefully: when some of a figure's requests fail (panic,
// livelock, cycle cap), the builder still returns every computable row,
// marks the dead cells with Failed, and returns the joined error alongside
// them. Renderers print FAILED markers for those cells, exclude them from
// means, and pass the error on — so hintm-bench shows the surviving figure
// and exits non-zero. Only a cancelled context aborts a figure outright.

// anyNil reports whether any needed result is missing (its request failed).
func anyNil(results ...*sim.Result) bool {
	for _, res := range results {
		if res == nil {
			return true
		}
	}
	return false
}

// fig7Apps is the subset the paper's larger-HTM studies show.
var fig7Apps = []string{"bayes", "genome", "labyrinth", "tpcc-no", "vacation", "yada"}

// req builds the single-SMT request most figures use.
func req(app string, scale workloads.Scale, kind sim.HTMKind, hints sim.HintMode) Request {
	return Request{Workload: app, Scale: scale, HTM: kind, Hints: hints, SMT: 1}
}

// Fig1Row reproduces one bar group of paper Fig. 1.
type Fig1Row struct {
	App string
	// CapacityTime: fraction of P8 runtime attributable to capacity aborts,
	// derived as 1 - cycles(InfCap)/cycles(P8) (the paper's method).
	CapacityTime float64
	// SafePages / SafeBlocks: fraction of touched pages / 64 B blocks safe
	// over the execution.
	SafePages, SafeBlocks float64
	// SafeReadsPage / SafeReadsBlock: fraction of transactional accesses
	// that are reads to safe regions at 4 KiB / 64 B granularity.
	SafeReadsPage, SafeReadsBlock float64
	// Pages, Blocks and TxAccesses are the profiled run's totals: distinct
	// pages and blocks touched, and transactional accesses made.
	Pages, Blocks int
	TxAccesses    uint64
	// Failed marks a row whose underlying runs failed; value fields are zero.
	Failed bool
}

// Fig1 runs the opportunity study.
func (r *Runner) Fig1(ctx context.Context) ([]Fig1Row, error) {
	specs, err := r.specs()
	if err != nil {
		return nil, err
	}
	// The profiled InfCap cell comes first: it is never derived, and a P8
	// run whose transactions all fit the buffer is derived from it.
	reqs := make([]Request, 0, 2*len(specs))
	for _, spec := range specs {
		reqs = append(reqs,
			req(spec.Name, r.opts.Scale, sim.HTMInfCap, sim.HintNone),
			req(spec.Name, r.opts.Scale, sim.HTMP8, sim.HintNone))
	}

	byReq, err := r.gather(ctx, reqs)
	if byReq == nil {
		return nil, err
	}

	var rows []Fig1Row
	for _, spec := range specs {
		infReq := req(spec.Name, r.opts.Scale, sim.HTMInfCap, sim.HintNone)
		p8 := byReq[req(spec.Name, r.opts.Scale, sim.HTMP8, sim.HintNone)]
		inf := byReq[infReq]
		// The InfCap cell is the profiled one: its sharing report was
		// produced (or recalled from the store) with its result.
		prof := r.report(infReq)
		if anyNil(p8, inf) || prof == nil {
			rows = append(rows, Fig1Row{App: spec.Name, Failed: true})
			continue
		}
		capTime := 1 - float64(inf.Cycles)/float64(p8.Cycles)
		if capTime < 0 {
			capTime = 0
		}
		rows = append(rows, Fig1Row{
			App:            spec.Name,
			CapacityTime:   capTime,
			SafePages:      prof.SafePageFrac,
			SafeBlocks:     prof.SafeBlockFrac,
			SafeReadsPage:  prof.SafeReadFracPage,
			SafeReadsBlock: prof.SafeReadFracBlock,
			Pages:          prof.Pages,
			Blocks:         prof.Blocks,
			TxAccesses:     prof.TxAccesses,
		})
	}
	return rows, err
}

// RenderFig1 prints the figure as a table.
func (r *Runner) RenderFig1(ctx context.Context, w io.Writer) error {
	rows, err := r.Fig1(ctx)
	if rows == nil {
		return err
	}
	fmt.Fprint(w, Title("Fig 1: capacity-abort time and safe-access opportunity (P8)"))
	t := stats.NewTable("app", "capacity-time", "safe-pages", "safe-reads@4K", "safe-reads@64B")
	chart := stats.NewBarChart("%")
	var ct, sp, srp, srb []float64
	for _, row := range rows {
		if row.Failed {
			t.Row(row.App, "FAILED", "-", "-", "-")
			chart.FailedBar(row.App)
			continue
		}
		t.Row(row.App, stats.Pct(row.CapacityTime), stats.Pct(row.SafePages),
			stats.Pct(row.SafeReadsPage), stats.Pct(row.SafeReadsBlock))
		ct = append(ct, row.CapacityTime)
		sp = append(sp, row.SafePages)
		srp = append(srp, row.SafeReadsPage)
		srb = append(srb, row.SafeReadsBlock)
		chart.Bar(row.App, row.CapacityTime*100)
	}
	t.Row("MEAN", stats.Pct(stats.Mean(ct)), stats.Pct(stats.Mean(sp)), stats.Pct(stats.Mean(srp)), stats.Pct(stats.Mean(srb)))
	t.Render(w)
	fmt.Fprintln(w, "\nruntime lost to capacity aborts:")
	chart.Render(w)
	return err
}

// SweepRow is one application of the hint sweep behind paper Figs. 4, 7
// and 8: HinTM-st, HinTM-dyn, HinTM and InfCap, each against one baseline
// HTM (P8, P8S, or L1TM with 2-way SMT).
type SweepRow struct {
	App          string
	BaseCapacity uint64
	BaseFalse    uint64
	CapRedSt     float64
	CapRedDyn    float64
	CapRedFull   float64
	FalseRedFull float64
	SpeedupSt    float64
	SpeedupDyn   float64
	SpeedupFull  float64
	SpeedupInf   float64
	// PageModeCycleFrac is the page-mode cycle fraction under HinTM (full),
	// Fig. 4b's secondary axis.
	PageModeCycleFrac float64
	// Failed marks a row whose underlying runs failed; value fields are zero.
	Failed bool
}

// Fig4 runs the P8 capacity-abort-reduction and speedup study.
func (r *Runner) Fig4(ctx context.Context) ([]SweepRow, error) {
	return r.sweep(ctx, nil, r.opts.Scale, sim.HTMP8, 1)
}

// Fig7 runs the P8S study on larger inputs.
func (r *Runner) Fig7(ctx context.Context) ([]SweepRow, error) {
	return r.sweep(ctx, fig7Apps, r.opts.LargeScale, sim.HTMP8S, 1)
}

// Fig8 runs the L1TM study with 2-way SMT on larger inputs.
func (r *Runner) Fig8(ctx context.Context) ([]SweepRow, error) {
	return r.sweep(ctx, fig7Apps, r.opts.LargeScale, sim.HTML1TM, 2)
}

// sweep runs the {baseline, st, dyn, full, InfCap} hint sweep over kind at
// the given scale and SMT width, for the selected workloads that apps
// names (nil = every selected workload), in selection order.
func (r *Runner) sweep(ctx context.Context, apps []string, scale workloads.Scale, kind sim.HTMKind, smt int) ([]SweepRow, error) {
	specs, err := r.specs()
	if err != nil {
		return nil, err
	}
	at := func(app string, kind sim.HTMKind, hints sim.HintMode) Request {
		return Request{Workload: app, Scale: scale, HTM: kind, Hints: hints, SMT: smt}
	}
	var keep []string
	for _, spec := range specs {
		if apps == nil || contains(apps, spec.Name) {
			keep = append(keep, spec.Name)
		}
	}
	// Every app's statically hinted runs come first: HinTM-dyn and baseline
	// are their static twins, and a twin derives from a run listed before
	// it when no static-safe access ran inside a transaction.
	var reqs []Request
	for _, app := range keep {
		reqs = append(reqs, at(app, kind, sim.HintFull), at(app, kind, sim.HintStatic))
	}
	for _, app := range keep {
		reqs = append(reqs,
			at(app, kind, sim.HintDynamic),
			at(app, kind, sim.HintNone),
			at(app, sim.HTMInfCap, sim.HintNone))
	}
	byReq, err := r.gather(ctx, reqs)
	if byReq == nil {
		return nil, err
	}
	var rows []SweepRow
	for _, app := range keep {
		base := byReq[at(app, kind, sim.HintNone)]
		st := byReq[at(app, kind, sim.HintStatic)]
		dyn := byReq[at(app, kind, sim.HintDynamic)]
		full := byReq[at(app, kind, sim.HintFull)]
		inf := byReq[at(app, sim.HTMInfCap, sim.HintNone)]
		if anyNil(base, st, dyn, full, inf) {
			rows = append(rows, SweepRow{App: app, Failed: true})
			continue
		}
		baseCap := base.Aborts[htm.AbortCapacity]
		baseFalse := base.Aborts[htm.AbortFalseConflict]
		rows = append(rows, SweepRow{
			App:               app,
			BaseCapacity:      baseCap,
			BaseFalse:         baseFalse,
			CapRedSt:          reduction(baseCap, st.Aborts[htm.AbortCapacity]),
			CapRedDyn:         reduction(baseCap, dyn.Aborts[htm.AbortCapacity]),
			CapRedFull:        reduction(baseCap, full.Aborts[htm.AbortCapacity]),
			FalseRedFull:      reduction(baseFalse, full.Aborts[htm.AbortFalseConflict]),
			SpeedupSt:         speedup(base.Cycles, st.Cycles),
			SpeedupDyn:        speedup(base.Cycles, dyn.Cycles),
			SpeedupFull:       speedup(base.Cycles, full.Cycles),
			SpeedupInf:        speedup(base.Cycles, inf.Cycles),
			PageModeCycleFrac: full.PageModeCycleFraction(),
		})
	}
	return rows, err
}

// RenderFig4 prints Fig. 4a+4b.
func (r *Runner) RenderFig4(ctx context.Context, w io.Writer) error {
	rows, err := r.Fig4(ctx)
	if rows == nil {
		return err
	}
	fmt.Fprint(w, Title("Fig 4a: capacity-abort reduction vs P8"))
	ta := stats.NewTable("app", "base-cap-aborts", "HinTM-st", "HinTM-dyn", "HinTM")
	var rs, rd, rf []float64
	for _, row := range rows {
		if row.Failed {
			ta.Row(row.App, "FAILED", "-", "-", "-")
			continue
		}
		ta.Row(row.App, row.BaseCapacity, stats.Pct(row.CapRedSt),
			stats.Pct(row.CapRedDyn), stats.Pct(row.CapRedFull))
		if row.BaseCapacity > 0 {
			rs = append(rs, row.CapRedSt)
			rd = append(rd, row.CapRedDyn)
			rf = append(rf, row.CapRedFull)
		}
	}
	ta.Row("MEAN", "-", stats.Pct(stats.Mean(rs)), stats.Pct(stats.Mean(rd)), stats.Pct(stats.Mean(rf)))
	ta.Render(w)

	fmt.Fprint(w, Title("Fig 4b: speedup over P8 (and page-mode cycle fraction)"))
	tb := stats.NewTable("app", "HinTM-st", "HinTM-dyn", "HinTM", "InfCap", "pagemode-cycles")
	chart := stats.NewBarChart("x")
	var ss, sd, sf, si []float64
	for _, row := range rows {
		if row.Failed {
			tb.Row(row.App, "FAILED", "-", "-", "-", "-")
			chart.FailedBar(row.App)
			continue
		}
		tb.Row(row.App,
			fmt.Sprintf("%.2fx", row.SpeedupSt),
			fmt.Sprintf("%.2fx", row.SpeedupDyn),
			fmt.Sprintf("%.2fx", row.SpeedupFull),
			fmt.Sprintf("%.2fx", row.SpeedupInf),
			stats.Pct(row.PageModeCycleFrac))
		ss = append(ss, row.SpeedupSt)
		sd = append(sd, row.SpeedupDyn)
		sf = append(sf, row.SpeedupFull)
		si = append(si, row.SpeedupInf)
		chart.Bar(row.App, row.SpeedupFull)
	}
	tb.Row("GEOMEAN",
		fmt.Sprintf("%.2fx", geomean(ss)),
		fmt.Sprintf("%.2fx", geomean(sd)),
		fmt.Sprintf("%.2fx", geomean(sf)),
		fmt.Sprintf("%.2fx", geomean(si)), "-")
	tb.Render(w)
	fmt.Fprintln(w, "\nHinTM speedup:")
	chart.Render(w)
	return err
}

// Fig5Row reproduces paper Fig. 5: the transactional access breakdown.
type Fig5Row struct {
	App                             string
	StaticFrac, DynFrac, UnsafeFrac float64
	// Failed marks a row whose underlying run failed; value fields are zero.
	Failed bool
}

// Fig5 measures the access breakdown under InfCap + HinTM (the paper's
// "HinTM + preserve" collection mode: no capacity aborts skew the counts).
func (r *Runner) Fig5(ctx context.Context) ([]Fig5Row, error) {
	specs, err := r.specs()
	if err != nil {
		return nil, err
	}
	var keep []*workloads.Spec
	var reqs []Request
	for _, spec := range specs {
		if spec.Name == "kmeans" || spec.Name == "ssca2" {
			continue // the paper omits them for brevity
		}
		keep = append(keep, spec)
		reqs = append(reqs, req(spec.Name, r.opts.Scale, sim.HTMInfCap, sim.HintFull))
	}
	results, err := r.RunAll(ctx, reqs)
	if err != nil && ctx.Err() != nil {
		return nil, err
	}
	var rows []Fig5Row
	for i, spec := range keep {
		res := results[i]
		if res == nil {
			rows = append(rows, Fig5Row{App: spec.Name, Failed: true})
			continue
		}
		total := float64(res.TxAccesses())
		if total == 0 {
			total = 1
		}
		rows = append(rows, Fig5Row{
			App:        spec.Name,
			StaticFrac: float64(res.StaticSafeAccesses) / total,
			DynFrac:    float64(res.DynSafeAccesses) / total,
			UnsafeFrac: float64(res.UnsafeTxAccesses) / total,
		})
	}
	return rows, err
}

// RenderFig5 prints the breakdown.
func (r *Runner) RenderFig5(ctx context.Context, w io.Writer) error {
	rows, err := r.Fig5(ctx)
	if rows == nil {
		return err
	}
	fmt.Fprint(w, Title("Fig 5: transactional access breakdown (compiler/runtime/unsafe)"))
	t := stats.NewTable("app", "static-safe", "dynamic-safe", "unsafe")
	var sf, df []float64
	for _, row := range rows {
		if row.Failed {
			t.Row(row.App, "FAILED", "-", "-")
			continue
		}
		t.Row(row.App, stats.Pct(row.StaticFrac), stats.Pct(row.DynFrac), stats.Pct(row.UnsafeFrac))
		sf = append(sf, row.StaticFrac)
		df = append(df, row.DynFrac)
	}
	t.Row("MEAN", stats.Pct(stats.Mean(sf)), stats.Pct(stats.Mean(df)), stats.Pct(1-stats.Mean(sf)-stats.Mean(df)))
	t.Render(w)
	return err
}

// Fig6Series reproduces one subplot of paper Fig. 6: transaction-footprint
// CDFs under baseline / HinTM-st / HinTM tracking, collected on InfCap.
type Fig6Series struct {
	App            string
	Points         []int
	Base, St, Full []float64
	// Failed marks a series whose underlying runs failed; CDFs are nil.
	Failed bool
}

// fig6Apps matches the paper's four subplots.
var fig6Apps = []string{"genome", "labyrinth", "bayes", "vacation"}

// Fig6 collects the CDFs.
func (r *Runner) Fig6(ctx context.Context) ([]Fig6Series, error) {
	points := []int{4, 8, 16, 24, 32, 40, 48, 56, 64}
	specs, err := r.specs()
	if err != nil {
		return nil, err
	}
	var apps []string
	for _, name := range fig6Apps {
		for _, spec := range specs {
			if spec.Name == name {
				apps = append(apps, name)
				break
			}
		}
	}
	var reqs []Request
	for _, name := range apps {
		reqs = append(reqs,
			req(name, r.opts.Scale, sim.HTMInfCap, sim.HintNone),
			req(name, r.opts.Scale, sim.HTMInfCap, sim.HintStatic),
			req(name, r.opts.Scale, sim.HTMInfCap, sim.HintFull))
	}
	byReq, err := r.gather(ctx, reqs)
	if byReq == nil {
		return nil, err
	}
	var out []Fig6Series
	for _, name := range apps {
		base := byReq[req(name, r.opts.Scale, sim.HTMInfCap, sim.HintNone)]
		st := byReq[req(name, r.opts.Scale, sim.HTMInfCap, sim.HintStatic)]
		full := byReq[req(name, r.opts.Scale, sim.HTMInfCap, sim.HintFull)]
		if anyNil(base, st, full) {
			out = append(out, Fig6Series{App: name, Points: points, Failed: true})
			continue
		}
		out = append(out, Fig6Series{
			App:    name,
			Points: points,
			Base:   base.TxFootprints.CDF(points),
			St:     st.TxFootprints.CDF(points),
			Full:   full.TxFootprints.CDF(points),
		})
	}
	return out, err
}

// RenderFig6 prints the CDFs.
func (r *Runner) RenderFig6(ctx context.Context, w io.Writer) error {
	series, err := r.Fig6(ctx)
	if series == nil && err != nil {
		return err
	}
	for _, s := range series {
		fmt.Fprint(w, Title(fmt.Sprintf("Fig 6: TX size CDF — %s (x = blocks, P8 capacity = 64)", s.App)))
		if s.Failed {
			fmt.Fprintln(w, "FAILED: underlying runs did not complete")
			continue
		}
		t := stats.NewTable("blocks", "baseline", "HinTM-st", "HinTM")
		for i, p := range s.Points {
			t.Row(p, s.Base[i], s.St[i], s.Full[i])
		}
		t.Render(w)
	}
	return err
}

// RenderFig7 prints the P8S study.
func (r *Runner) RenderFig7(ctx context.Context, w io.Writer) error {
	rows, err := r.Fig7(ctx)
	if rows == nil {
		return err
	}
	fmt.Fprint(w, Title("Fig 7a: capacity & false-conflict abort reduction vs P8S (large inputs)"))
	ta := stats.NewTable("app", "base-cap", "base-false", "cap-red-st", "cap-red-dyn", "cap-red-full", "false-red-full")
	for _, row := range rows {
		if row.Failed {
			ta.Row(row.App, "FAILED", "-", "-", "-", "-", "-")
			continue
		}
		ta.Row(row.App, row.BaseCapacity, row.BaseFalse, stats.Pct(row.CapRedSt),
			stats.Pct(row.CapRedDyn), stats.Pct(row.CapRedFull), stats.Pct(row.FalseRedFull))
	}
	ta.Render(w)

	fmt.Fprint(w, Title("Fig 7b: speedup over P8S"))
	tb := stats.NewTable("app", "HinTM-st", "HinTM-dyn", "HinTM", "InfCap")
	var sf []float64
	for _, row := range rows {
		if row.Failed {
			tb.Row(row.App, "FAILED", "-", "-", "-")
			continue
		}
		tb.Row(row.App,
			fmt.Sprintf("%.2fx", row.SpeedupSt),
			fmt.Sprintf("%.2fx", row.SpeedupDyn),
			fmt.Sprintf("%.2fx", row.SpeedupFull),
			fmt.Sprintf("%.2fx", row.SpeedupInf))
		sf = append(sf, row.SpeedupFull)
	}
	tb.Row("GEOMEAN", "-", "-", fmt.Sprintf("%.2fx", geomean(sf)), "-")
	tb.Render(w)
	return err
}

// RenderFig8 prints the L1TM study.
func (r *Runner) RenderFig8(ctx context.Context, w io.Writer) error {
	rows, err := r.Fig8(ctx)
	if rows == nil {
		return err
	}
	fmt.Fprint(w, Title("Fig 8: speedup over L1TM with 2-way SMT (large inputs)"))
	t := stats.NewTable("app", "base-cap-aborts", "cap-red-full", "HinTM-st", "HinTM-dyn", "HinTM", "InfCap", "pagemode-cycles")
	var sf []float64
	for _, row := range rows {
		if row.Failed {
			t.Row(row.App, "FAILED", "-", "-", "-", "-", "-", "-")
			continue
		}
		t.Row(row.App, row.BaseCapacity, stats.Pct(row.CapRedFull),
			fmt.Sprintf("%.2fx", row.SpeedupSt),
			fmt.Sprintf("%.2fx", row.SpeedupDyn),
			fmt.Sprintf("%.2fx", row.SpeedupFull),
			fmt.Sprintf("%.2fx", row.SpeedupInf),
			stats.Pct(row.PageModeCycleFrac))
		sf = append(sf, row.SpeedupFull)
	}
	t.Row("GEOMEAN", "-", "-", "-", "-", fmt.Sprintf("%.2fx", geomean(sf)), "-", "-")
	t.Render(w)
	return err
}

// RenderAll runs every figure in order. A figure with failed cells renders
// degraded and its error is collected; only a cancelled context (or a
// figure yielding nothing at all) stops the sequence early.
func (r *Runner) RenderAll(ctx context.Context, w io.Writer) error {
	var errs []error
	figures := []struct {
		name   string
		render func(context.Context, io.Writer) error
	}{
		{"fig1", r.RenderFig1}, {"fig4", r.RenderFig4}, {"fig5", r.RenderFig5},
		{"fig6", r.RenderFig6}, {"fig7", r.RenderFig7}, {"fig8", r.RenderFig8},
	}
	spans := make([]RunStats, 0, len(figures))
	names := make([]string, 0, len(figures))
	for _, f := range figures {
		before := r.Stats()
		err := f.render(ctx, w)
		spans = append(spans, r.Stats().Sub(before))
		names = append(names, f.name)
		if err != nil {
			if ctx.Err() != nil {
				return err
			}
			errs = append(errs, err)
		}
	}
	r.renderRunSummary(w, names, spans)
	return joinErrors(errs)
}

// renderRunSummary appends the per-figure production breakdown to every
// full render: how each figure's simulations were obtained (full cold runs,
// cells derived from an equivalent run, or content-addressed store
// recalls). Shared runs attribute to the first
// figure that needed them, so later figures showing zeros means the
// memoization is working, not that they rendered for free.
// RenderRunSummary is the single-figure entry point to the same table:
// callers that render one figure directly (hintm-bench fig4 etc.) pass the
// figure name and the stats span their render consumed.
func (r *Runner) RenderRunSummary(w io.Writer, name string, span RunStats) {
	r.renderRunSummary(w, []string{name}, []RunStats{span})
}

func (r *Runner) renderRunSummary(w io.Writer, names []string, spans []RunStats) {
	fmt.Fprint(w, Title("Run summary: how each figure's simulations were produced"))
	tb := stats.NewTable("figure", "cold", "derived", "store-hit")
	var total RunStats
	for i, name := range names {
		d := spans[i]
		tb.Row(name, d.SimRuns, d.Derived, d.StoreHits)
		total.SimRuns += d.SimRuns
		total.Derived += d.Derived
		total.StoreHits += d.StoreHits
	}
	tb.Row("TOTAL", total.SimRuns, total.Derived, total.StoreHits)
	tb.Render(w)
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// RenderTable1 prints HinTM's modeled hardware additions (paper Table I).
func RenderTable1(w io.Writer) {
	fmt.Fprint(w, Title("Table I: HinTM's required hardware modifications (as modeled)"))
	t := stats.NewTable("component", "addition", "where in this repo")
	t.Row("Core", "safe load/store opcodes (1 bit per memory op)", "ir.OpLoad/OpStore Safe flag")
	t.Row("TLB", "2 bits per entry (ro, shared) + owner tid", "vmem.tlbEntry")
	t.Row("Page table", "tid + ro + shared per PTE", "vmem.pageEntry")
	t.Row("HTM controller", "1-bit safety hint input per access", "htm.Controller.Access")
	t.Row("HTM controller", "touched-page set for page-mode aborts", "htm.Controller touched map")
	t.Render(w)
}

// RenderTable2 prints the machine configuration (paper Table II).
func RenderTable2(w io.Writer) {
	cfg := sim.DefaultConfig()
	fmt.Fprint(w, Title("Table II: simulation parameters"))
	t := stats.NewTable("parameter", "value")
	t.Row("cores", fmt.Sprintf("%d x 64-bit, in-order timing, %d-wide contexts", cfg.Cores, cfg.SMT))
	t.Row("L1d", fmt.Sprintf("32KB %d-way, 64B blocks, %d-cycle", cfg.Cache.L1Ways, cfg.Cache.L1Latency))
	t.Row("L2", fmt.Sprintf("8MB %d-way shared, %d-cycle", cfg.Cache.L2Ways, cfg.Cache.L2Latency))
	t.Row("memory", fmt.Sprintf("%d-cycle", cfg.Cache.MemLatency))
	t.Row("coherence", "snoopy MESI")
	t.Row("P8 buffer", fmt.Sprintf("%d entries, fully associative", cfg.P8Entries))
	t.Row("P8S signature", fmt.Sprintf("%d-bit PBX, %d hashes", cfg.SigBits, cfg.SigHashes))
	t.Row("TLB", fmt.Sprintf("%d entries/context", cfg.TLBEntries))
	t.Row("page costs", fmt.Sprintf("minor fault %d, shootdown %d/%d cycles",
		cfg.VM.MinorFault, cfg.VM.ShootdownInitiator, cfg.VM.ShootdownSlave))
	t.Render(w)
}
