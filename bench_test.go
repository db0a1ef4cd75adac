// Simulator and component benchmarks: per-workload baseline-vs-HinTM runs
// at the small input scale, plus microbenchmarks of the cache, the HTM
// trackers, the classifier and the analyses it rests on. The paper's
// figures are pinned by the harness tests and the golden, and
// produced at full scale by `go run ./cmd/hintm-bench all`.
package hintm_test

import (
	"context"
	"testing"

	"hintm/internal/alias"
	"hintm/internal/cache"
	"hintm/internal/classify"
	"hintm/internal/escape"
	"hintm/internal/htm"
	"hintm/internal/sim"
	"hintm/internal/workloads"
)

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
