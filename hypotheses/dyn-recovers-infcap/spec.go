// Package dynrecoversinfcap states the reproduction's headline claim as a
// falsifiable experiment: dynamic-only HinTM hints should recover most of
// the speedup an infinite-capacity HTM would deliver, because the capacity
// aborts they eliminate are the dominant cost on read-dominated workloads.
package dynrecoversinfcap

import (
	"fmt"

	"hintm/internal/harness"
	"hintm/internal/htm"
	"hintm/internal/hyp"
	"hintm/internal/sim"
	"hintm/internal/stats"
)

func init() { hyp.Register(spec) }

// Metric indices.
const (
	mCycles = iota
	mCapacityAborts
	mCommits
)

// threshold is the claim's recovery fraction: HinTM-dyn must deliver at
// least this share of InfCap's speedup over P8.
const threshold = 0.80

// headroom is the minimum InfCap speedup over P8 (per seed) for the
// question to be answerable at all: when the unbounded HTM itself gains
// under 5%, there is no capacity cost to recover and the verdict is
// INCONCLUSIVE rather than a ratio of noise.
const headroom = 0.05

var spec = &hyp.Spec{
	Name: "dyn-recovers-infcap",
	Claim: "On genome — the paper's read-dominated capacity victim — HinTM's " +
		"dynamic-only hints (P8+dyn) recover at least 80% of the speedup an " +
		"infinite-capacity HTM (InfCap) achieves over the bounded P8 baseline: " +
		"mean per-seed recovery fraction (S_dyn-1)/(S_inf-1) >= 0.80.",
	Refs: []string{
		"Safety Hints for HTM Capacity Abort Mitigation (HPCA 2023), §V — HinTM-dyn vs the InfCap upper bound",
	},
	Base:     harness.Request{Workload: "genome", HTM: sim.HTMP8, Hints: sim.HintNone},
	Variable: "HTM/hint configuration",
	Levels: []hyp.Level{
		{Name: "P8"}, // control: bounded baseline, no hints
		{Name: "P8+dyn", Apply: func(q *harness.Request) { q.Hints = sim.HintDynamic }},
		{Name: "InfCap", Apply: func(q *harness.Request) { q.HTM = sim.HTMInfCap }},
	},
	Seeds: []uint64{1, 2, 3, 4, 5},
	Metrics: []hyp.Metric{
		{Name: "cycles", Format: "%.0f",
			Extract: func(r *sim.Result) float64 { return float64(r.Cycles) }},
		{Name: "capacity aborts", Format: "%.0f",
			Extract: func(r *sim.Result) float64 { return float64(r.Aborts[htm.AbortCapacity]) }},
		{Name: "HTM commits", Format: "%.0f",
			Extract: func(r *sim.Result) float64 { return float64(r.Commits) }},
	},
	Judge: judge,
}

// judge computes the per-seed recovery fraction (S_dyn - 1) / (S_inf - 1),
// where S_x is that configuration's speedup over the same-seed P8 control.
func judge(e *hyp.Evaluation) hyp.Outcome {
	ctrl := e.Values(0, mCycles)
	dyn := e.Values(1, mCycles)
	inf := e.Values(2, mCycles)
	recov := make([]float64, len(ctrl))
	for i := range ctrl {
		sDyn := ctrl[i]/dyn[i] - 1
		sInf := ctrl[i]/inf[i] - 1
		if sInf < headroom {
			return hyp.Outcome{
				Verdict: hyp.Inconclusive,
				Reason: fmt.Sprintf("seed %d: InfCap gains only %.1f%% over P8 — no capacity headroom to recover, the claim is untestable at this scale.",
					e.Spec.Seeds[i], sInf*100),
			}
		}
		recov[i] = sDyn / sInf
	}
	sum := stats.Summarize(recov)
	reason := fmt.Sprintf("dynamic hints recover a mean %.1f%% of InfCap's speedup over P8 (median %.1f%%, min %.1f%%, max %.1f%%) across %d seeds; threshold %.0f%%.",
		sum.Mean*100, sum.Median*100, sum.Min*100, sum.Max*100, sum.N, threshold*100)
	if sum.Mean >= threshold {
		return hyp.Outcome{Verdict: hyp.Supported, Reason: reason}
	}
	return hyp.Outcome{Verdict: hyp.Refuted, Reason: reason}
}
