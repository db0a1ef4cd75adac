package workloads

import (
	"context"
	"testing"

	"hintm/internal/classify"
	"hintm/internal/fault"
	"hintm/internal/htm"
	"hintm/internal/sim"
)

// runInvariant builds, classifies, and runs one checked workload under cfg,
// returning the invariant value and the run result.
func runInvariant(t *testing.T, c invariantCheck, cfg sim.Config) (int64, *sim.Result) {
	t.Helper()
	spec, err := ByName(c.workload)
	if err != nil {
		t.Fatal(err)
	}
	mod := spec.Build(spec.DefaultThreads, Small)
	if _, err := classify.Run(mod); err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(cfg, mod)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", c.workload, err)
	}
	return c.value(m), res
}

// The fault-injection extension of the invariants matrix: injected spurious
// aborts perturb timing and the abort/retry/fallback paths, but every
// schedule-independent output must still match the fault-free run — and the
// campaign must actually fire.
func TestSemanticInvariantsUnderFaultCampaigns(t *testing.T) {
	base := sim.DefaultConfig()
	base.Hints = sim.HintFull

	t.Run("spurious", func(t *testing.T) {
		var fired uint64
		for _, c := range invariantChecks {
			want, _ := runInvariant(t, c, base)
			if want == 0 {
				t.Fatalf("%s: fault-free invariant value is zero — workload broken", c.workload)
			}
			cfg := base
			cfg.Faults = fault.Plan{SpuriousProb: 0.05}
			got, res := runInvariant(t, c, cfg)
			if got != want {
				t.Errorf("%s: %s = %d under spurious campaign, want %d",
					c.workload, c.describe, got, want)
			}
			fired += res.Aborts[htm.AbortSpurious]
		}
		if fired == 0 {
			t.Error("spurious campaign was vacuous across the whole matrix")
		}
	})
}

// Forcing every workload through the fallback lock: a 4-entry tracker with
// zero retries makes nearly every transaction overflow or conflict straight
// into the fallback path, which must still produce correct outputs.
func TestAllWorkloadsThroughFallbackPath(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.P8Entries = 4
	cfg.CapacityRetries = 0
	cfg.MaxConflictRetries = 0

	byName := make(map[string]invariantCheck)
	for _, c := range invariantChecks {
		byName[c.workload] = c
	}

	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			mod := spec.Build(spec.DefaultThreads, Small)
			if _, err := classify.Run(mod); err != nil {
				t.Fatal(err)
			}
			m, err := sim.New(cfg, mod)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.FallbackCommits == 0 {
				t.Errorf("4-entry tracker never forced %s through the fallback lock: %v",
					spec.Name, res)
			}
			// For the workloads with a checked invariant, the fallback-heavy
			// run must still produce the canonical value.
			if c, ok := byName[spec.Name]; ok {
				want, _ := runInvariant(t, c, sim.DefaultConfig())
				if got := c.value(m); got != want {
					t.Errorf("%s: %s = %d via fallback path, want %d",
						spec.Name, c.describe, got, want)
				}
			}
		})
	}
}
