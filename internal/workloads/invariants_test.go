package workloads

import (
	"context"
	"testing"

	"hintm/internal/classify"
	"hintm/internal/sim"
)

// invariantCheck names one schedule-independent output of a workload: a
// quantity that depends only on per-thread PRNG streams and TX atomicity,
// not on interleaving, so it must be bit-identical across every HTM
// baseline, hint mode — and fault campaign (fault_test.go).
type invariantCheck struct {
	workload string
	describe string
	value    func(m *sim.Machine) int64
}

var invariantChecks = []invariantCheck{
	{
		workload: "kmeans",
		describe: "sum of cluster counts == points processed",
		value: func(m *sim.Machine) int64 {
			var sum int64
			for c := int64(0); c < kmK; c++ {
				sum += m.ReadGlobal("centers", c*16)
			}
			return sum
		},
	},
	{
		workload: "tpcc-p",
		describe: "warehouse YTD == initial + all payment amounts",
		value: func(m *sim.Machine) int64 {
			return m.ReadGlobal("warehouse", 0)
		},
	},
	{
		workload: "intruder",
		describe: "queue head == packet count (all packets consumed once)",
		value: func(m *sim.Machine) int64 {
			return m.ReadGlobal("qhead", 0)
		},
	},
	{
		workload: "yada",
		describe: "refined counter == threads * refinements",
		value: func(m *sim.Machine) int64 {
			return m.ReadGlobal("refined", 0)
		},
	},
}

// Safety hints must never change program semantics: a workload's
// configuration-independent outputs have to be identical across every HTM
// baseline and hint mode.
func TestSemanticInvariantsAcrossConfigs(t *testing.T) {
	checks := invariantChecks

	configs := []struct {
		name  string
		kind  sim.HTMKind
		hints sim.HintMode
	}{
		{"P8/baseline", sim.HTMP8, sim.HintNone},
		{"P8/st", sim.HTMP8, sim.HintStatic},
		{"P8/dyn", sim.HTMP8, sim.HintDynamic},
		{"P8/full", sim.HTMP8, sim.HintFull},
		{"P8S/full", sim.HTMP8S, sim.HintFull},
		{"L1TM/full", sim.HTML1TM, sim.HintFull},
		{"InfCap/baseline", sim.HTMInfCap, sim.HintNone},
	}

	for _, c := range checks {
		c := c
		t.Run(c.workload, func(t *testing.T) {
			spec, err := ByName(c.workload)
			if err != nil {
				t.Fatal(err)
			}
			mod := spec.Build(spec.DefaultThreads, Small)
			if _, err := classify.Run(mod); err != nil {
				t.Fatal(err)
			}
			var want int64
			for i, cfgDesc := range configs {
				cfg := sim.DefaultConfig()
				cfg.HTM = cfgDesc.kind
				cfg.Hints = cfgDesc.hints
				m, err := sim.New(cfg, mod)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(context.Background()); err != nil {
					t.Fatalf("%s: %v", cfgDesc.name, err)
				}
				got := c.value(m)
				if i == 0 {
					want = got
					if want == 0 {
						t.Fatalf("%s: invariant value is zero — workload broken", c.describe)
					}
					continue
				}
				if got != want {
					t.Errorf("%s: %s = %d under %s, want %d (baseline)",
						c.workload, c.describe, got, cfgDesc.name, want)
				}
			}
		})
	}
}
