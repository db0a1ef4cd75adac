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
// them. The results document (results.go) excludes those rows from its
// aggregates and keeps the error in the figure's section; renderers print
// FAILED markers for them, so hintm-bench shows the surviving figure and
// exits non-zero. Only a cancelled context aborts a figure outright.

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

// RenderFig1 prints Fig. 1's section; RenderFig4 to RenderFig8 print
// theirs. Each builds a document holding only its figure's section.
func (r *Runner) RenderFig1(ctx context.Context, w io.Writer) error { return r.render(ctx, w, "fig1") }
func (r *Runner) RenderFig4(ctx context.Context, w io.Writer) error { return r.render(ctx, w, "fig4") }
func (r *Runner) RenderFig5(ctx context.Context, w io.Writer) error { return r.render(ctx, w, "fig5") }
func (r *Runner) RenderFig6(ctx context.Context, w io.Writer) error { return r.render(ctx, w, "fig6") }
func (r *Runner) RenderFig7(ctx context.Context, w io.Writer) error { return r.render(ctx, w, "fig7") }
func (r *Runner) RenderFig8(ctx context.Context, w io.Writer) error { return r.render(ctx, w, "fig8") }

func (r *Runner) render(ctx context.Context, w io.Writer, name string) error {
	doc, err := r.BenchResults(ctx, name)
	if err != nil {
		return err
	}
	doc.renderFigures(w)
	return doc.Err()
}

// RenderAll builds the whole document, renders it with its run summary,
// and returns the figures' joined errors. A figure with failed cells
// renders degraded; a cancelled context renders nothing.
func (r *Runner) RenderAll(ctx context.Context, w io.Writer) error {
	doc, err := r.BenchResults(ctx)
	if err != nil {
		return err
	}
	doc.Render(w)
	return doc.Err()
}

// renderFigures prints each built section in order. A section without rows
// prints nothing.
func (b *BenchResults) renderFigures(w io.Writer) {
	if b.Fig1 != nil && len(b.Fig1.Rows) > 0 {
		b.Fig1.render(w)
	}
	if b.Fig4 != nil && len(b.Fig4.Rows) > 0 {
		b.Fig4.renderFig4(w)
	}
	if b.Fig5 != nil && len(b.Fig5.Rows) > 0 {
		b.Fig5.render(w)
	}
	if b.Fig6 != nil {
		b.Fig6.render(w)
	}
	if b.Fig7 != nil && len(b.Fig7.Rows) > 0 {
		b.Fig7.renderFig7(w)
	}
	if b.Fig8 != nil && len(b.Fig8.Rows) > 0 {
		b.Fig8.renderFig8(w)
	}
}

// times formats a speedup.
func times(v float64) string { return fmt.Sprintf("%.2fx", v) }

func (s *Fig1Section) render(w io.Writer) {
	fmt.Fprint(w, Title("Fig 1: capacity-abort time and safe-access opportunity (P8)"))
	t := stats.NewTable("app", "capacity-time", "safe-pages", "safe-reads@4K", "safe-reads@64B")
	chart := stats.NewBarChart("%")
	for _, row := range s.Rows {
		if row.Failed {
			t.Row(row.App, "FAILED", "-", "-", "-")
			chart.FailedBar(row.App)
			continue
		}
		t.Row(row.App, stats.Pct(row.CapacityTime), stats.Pct(row.SafePages),
			stats.Pct(row.SafeReadsPage), stats.Pct(row.SafeReadsBlock))
		chart.Bar(row.App, row.CapacityTime*100)
	}
	m := s.Mean
	t.Row(m.App, stats.Pct(m.CapacityTime), stats.Pct(m.SafePages), stats.Pct(m.SafeReadsPage), stats.Pct(m.SafeReadsBlock))
	t.Render(w)
	fmt.Fprintln(w, "\nruntime lost to capacity aborts:")
	chart.Render(w)
}

// renderFig4 prints Fig. 4a+4b.
func (s *SweepSection) renderFig4(w io.Writer) {
	fmt.Fprint(w, Title("Fig 4a: capacity-abort reduction vs P8"))
	ta := stats.NewTable("app", "base-cap-aborts", "HinTM-st", "HinTM-dyn", "HinTM")
	for _, row := range s.Rows {
		if row.Failed {
			ta.Row(row.App, "FAILED", "-", "-", "-")
			continue
		}
		ta.Row(row.App, row.BaseCapacity, stats.Pct(row.CapRedSt),
			stats.Pct(row.CapRedDyn), stats.Pct(row.CapRedFull))
	}
	m := s.Mean
	ta.Row(m.App, "-", stats.Pct(m.CapRedSt), stats.Pct(m.CapRedDyn), stats.Pct(m.CapRedFull))
	ta.Render(w)

	fmt.Fprint(w, Title("Fig 4b: speedup over P8 (and page-mode cycle fraction)"))
	tb := stats.NewTable("app", "HinTM-st", "HinTM-dyn", "HinTM", "InfCap", "pagemode-cycles")
	chart := stats.NewBarChart("x")
	for _, row := range s.Rows {
		if row.Failed {
			tb.Row(row.App, "FAILED", "-", "-", "-", "-")
			chart.FailedBar(row.App)
			continue
		}
		tb.Row(row.App, times(row.SpeedupSt), times(row.SpeedupDyn), times(row.SpeedupFull),
			times(row.SpeedupInf), stats.Pct(row.PageModeCycleFrac))
		chart.Bar(row.App, row.SpeedupFull)
	}
	g := s.Geomean
	tb.Row(g.App, times(g.SpeedupSt), times(g.SpeedupDyn), times(g.SpeedupFull), times(g.SpeedupInf), "-")
	tb.Render(w)
	fmt.Fprintln(w, "\nHinTM speedup:")
	chart.Render(w)
}

func (s *Fig5Section) render(w io.Writer) {
	fmt.Fprint(w, Title("Fig 5: transactional access breakdown (compiler/runtime/unsafe)"))
	t := stats.NewTable("app", "static-safe", "dynamic-safe", "unsafe")
	for _, row := range s.Rows {
		if row.Failed {
			t.Row(row.App, "FAILED", "-", "-")
			continue
		}
		t.Row(row.App, stats.Pct(row.StaticFrac), stats.Pct(row.DynFrac), stats.Pct(row.UnsafeFrac))
	}
	m := s.Mean
	t.Row(m.App, stats.Pct(m.StaticFrac), stats.Pct(m.DynFrac), stats.Pct(m.UnsafeFrac))
	t.Render(w)
}

func (s *Fig6Section) render(w io.Writer) {
	for _, series := range s.Series {
		fmt.Fprint(w, Title(fmt.Sprintf("Fig 6: TX size CDF — %s (x = blocks, P8 capacity = 64)", series.App)))
		if series.Failed {
			fmt.Fprintln(w, "FAILED: underlying runs did not complete")
			continue
		}
		t := stats.NewTable("blocks", "baseline", "HinTM-st", "HinTM")
		for i, p := range series.Points {
			t.Row(p, series.Base[i], series.St[i], series.Full[i])
		}
		t.Render(w)
	}
}

// renderFig7 prints the P8S study.
func (s *SweepSection) renderFig7(w io.Writer) {
	fmt.Fprint(w, Title("Fig 7a: capacity & false-conflict abort reduction vs P8S (large inputs)"))
	ta := stats.NewTable("app", "base-cap", "base-false", "cap-red-st", "cap-red-dyn", "cap-red-full", "false-red-full")
	for _, row := range s.Rows {
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
	for _, row := range s.Rows {
		if row.Failed {
			tb.Row(row.App, "FAILED", "-", "-", "-")
			continue
		}
		tb.Row(row.App, times(row.SpeedupSt), times(row.SpeedupDyn), times(row.SpeedupFull), times(row.SpeedupInf))
	}
	tb.Row(s.Geomean.App, "-", "-", times(s.Geomean.SpeedupFull), "-")
	tb.Render(w)
}

// renderFig8 prints the L1TM study.
func (s *SweepSection) renderFig8(w io.Writer) {
	fmt.Fprint(w, Title("Fig 8: speedup over L1TM with 2-way SMT (large inputs)"))
	t := stats.NewTable("app", "base-cap-aborts", "cap-red-full", "HinTM-st", "HinTM-dyn", "HinTM", "InfCap", "pagemode-cycles")
	for _, row := range s.Rows {
		if row.Failed {
			t.Row(row.App, "FAILED", "-", "-", "-", "-", "-", "-")
			continue
		}
		t.Row(row.App, row.BaseCapacity, stats.Pct(row.CapRedFull), times(row.SpeedupSt), times(row.SpeedupDyn),
			times(row.SpeedupFull), times(row.SpeedupInf), stats.Pct(row.PageModeCycleFrac))
	}
	t.Row(s.Geomean.App, "-", "-", "-", "-", times(s.Geomean.SpeedupFull), "-", "-")
	t.Render(w)
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

// RenderTable2 prints the machine configuration (paper Table II, and the
// parameters the paper leaves unspecified); hintm-bench table2 and
// hintm-sim -print-config print it.
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
	t.Row("TLB", fmt.Sprintf("%d entries/context, %d-cycle walk", cfg.TLBEntries, cfg.VM.TLBMiss))
	t.Row("page costs", fmt.Sprintf("minor fault %d, shootdown %d/%d cycles",
		cfg.VM.MinorFault, cfg.VM.ShootdownInitiator, cfg.VM.ShootdownSlave))
	t.Row("conflict retries", fmt.Sprintf("%d, then fallback lock", cfg.MaxConflictRetries))
	t.Render(w)
}
