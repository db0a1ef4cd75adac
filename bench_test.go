// Benchmarks regenerating the paper's evaluation, one per table/figure, plus
// component microbenchmarks. Each figure benchmark runs the corresponding
// harness experiment (at the quick input scale so `go test -bench` stays
// tractable) and reports its headline numbers as benchmark metrics; the
// full-scale figures are produced by `go run ./cmd/hintm-bench all`.
//
// Table I (HinTM's hardware additions) and Table II (machine parameters) are
// configuration tables: `go run ./cmd/hintm-sim -print-config` regenerates
// Table II, and BenchmarkTable2_MachineConfig exercises the same path.
package hintm_test

import (
	"context"
	"io"
	"math"
	"testing"

	"hintm/internal/alias"
	"hintm/internal/cache"
	"hintm/internal/classify"
	"hintm/internal/escape"
	"hintm/internal/harness"
	"hintm/internal/htm"
	"hintm/internal/sim"
	"hintm/internal/workloads"
)

func quickRunner() *harness.Runner {
	return harness.NewRunner(harness.QuickOptions())
}

// BenchmarkFig1_OpportunityStudy regenerates Fig. 1: capacity-abort runtime
// share and the safe-region/safe-access opportunity metrics.
func BenchmarkFig1_OpportunityStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quickRunner().Fig1(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		var capTime, safePages, safeReads float64
		for _, r := range rows {
			capTime += r.CapacityTime
			safePages += r.SafePages
			safeReads += r.SafeReadsPage
		}
		n := float64(len(rows))
		b.ReportMetric(capTime/n*100, "capacity-time-%")
		b.ReportMetric(safePages/n*100, "safe-pages-%")
		b.ReportMetric(safeReads/n*100, "safe-reads@4K-%")
	}
}

// BenchmarkFig4a_CapacityAbortReduction and BenchmarkFig4b_Speedup
// regenerate Fig. 4 on the P8 baseline.
func BenchmarkFig4a_CapacityAbortReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quickRunner().Fig4(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		var st, dyn, full, n float64
		for _, r := range rows {
			if r.BaseCapacity == 0 {
				continue
			}
			st += r.CapRedSt
			dyn += r.CapRedDyn
			full += r.CapRedFull
			n++
		}
		if n > 0 {
			b.ReportMetric(st/n*100, "cap-red-st-%")
			b.ReportMetric(dyn/n*100, "cap-red-dyn-%")
			b.ReportMetric(full/n*100, "cap-red-full-%")
		}
	}
}

func BenchmarkFig4b_Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quickRunner().Fig4(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		var full, inf, max float64
		prod := 1.0
		for _, r := range rows {
			prod *= r.SpeedupFull
			inf += r.SpeedupInf
			if r.SpeedupFull > max {
				max = r.SpeedupFull
			}
			full++
		}
		b.ReportMetric(pow(prod, 1/full), "geomean-speedup-x")
		b.ReportMetric(max, "max-speedup-x")
	}
}

// BenchmarkFig5_AccessBreakdown regenerates Fig. 5.
func BenchmarkFig5_AccessBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quickRunner().Fig5(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		var static, dyn float64
		for _, r := range rows {
			static += r.StaticFrac
			dyn += r.DynFrac
		}
		n := float64(len(rows))
		b.ReportMetric(static/n*100, "static-safe-%")
		b.ReportMetric(dyn/n*100, "dynamic-safe-%")
	}
}

// BenchmarkFig6_TxSizeCDF regenerates the Fig. 6 footprint CDFs.
func BenchmarkFig6_TxSizeCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := quickRunner().Fig6(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		var overCapBase, overCapFull float64
		for _, s := range series {
			last := len(s.Points) - 1
			overCapBase += 1 - s.Base[last]
			overCapFull += 1 - s.Full[last]
		}
		n := float64(len(series))
		b.ReportMetric(overCapBase/n*100, "base-tx-over-64blk-%")
		b.ReportMetric(overCapFull/n*100, "hintm-tx-over-64blk-%")
	}
}

// BenchmarkFig7_P8S regenerates the P8S study.
func BenchmarkFig7_P8S(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quickRunner().Fig7(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		prod, n := 1.0, 0.0
		for _, r := range rows {
			prod *= r.SpeedupFull
			n++
		}
		b.ReportMetric(pow(prod, 1/n), "geomean-speedup-x")
	}
}

// BenchmarkFig8_L1TMSMT regenerates the L1TM/SMT study.
func BenchmarkFig8_L1TMSMT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quickRunner().Fig8(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		prod, n := 1.0, 0.0
		for _, r := range rows {
			prod *= r.SpeedupFull
			n++
		}
		b.ReportMetric(pow(prod, 1/n), "geomean-speedup-x")
	}
}

// BenchmarkTable2_MachineConfig renders the Table-II parameter dump.
func BenchmarkTable2_MachineConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.RenderTable2(io.Discard)
	}
}

// Per-workload baseline-vs-HinTM simulation benches: the cycles metric is
// the figure datum; ns/op measures simulator throughput.
func BenchmarkWorkloadP8(b *testing.B) {
	for _, name := range workloads.Names() {
		for _, mode := range []sim.HintMode{sim.HintNone, sim.HintFull} {
			spec, _ := workloads.ByName(name)
			mod := spec.BuildDefault(workloads.Small)
			if _, err := classify.Run(mod); err != nil {
				b.Fatal(err)
			}
			b.Run(name+"/"+mode.String(), func(b *testing.B) {
				var cycles int64
				for i := 0; i < b.N; i++ {
					cfg := sim.DefaultConfig()
					cfg.Hints = mode
					m, err := sim.New(cfg, mod)
					if err != nil {
						b.Fatal(err)
					}
					res, err := m.Run(context.Background())
					if err != nil {
						b.Fatal(err)
					}
					cycles = res.Cycles
					m.Release()
				}
				b.ReportMetric(float64(cycles), "sim-cycles")
			})
		}
	}
}

// Component microbenchmarks.

func BenchmarkCacheAccess(b *testing.B) {
	h := cache.New(cache.DefaultConfig(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(i%8, uint64(i%4096), i%7 == 0)
	}
}

func BenchmarkP8TrackerTrack(b *testing.B) {
	tr := htm.NewP8Tracker(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !tr.TrackRead(uint64(i % 64)) {
			tr.Reset()
		}
	}
}

func BenchmarkSignatureAddCheck(b *testing.B) {
	sig := htm.NewSignature(1024, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig.Add(uint64(i))
		sig.MayContain(uint64(i + 1))
		if i%4096 == 0 {
			sig.Reset()
		}
	}
}

func BenchmarkClassifyPass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec, _ := workloads.ByName("labyrinth")
		mod := spec.BuildDefault(workloads.Small)
		if _, err := classify.Run(mod); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAliasAnalysis(b *testing.B) {
	spec, _ := workloads.ByName("vacation")
	mod := spec.BuildDefault(workloads.Small)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := alias.Analyze(mod)
		escape.Analyze(mod, a)
	}
}

// BenchmarkSimulatorThroughput measures simulated instructions per second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec, _ := workloads.ByName("kmeans")
	mod := spec.BuildDefault(workloads.Small)
	if _, err := classify.Run(mod); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		m, err := sim.New(sim.DefaultConfig(), mod)
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
		m.Release()
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "sim-instrs/s")
}

func pow(x, y float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, y)
}
