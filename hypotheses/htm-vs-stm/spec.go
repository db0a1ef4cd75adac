// Package htmvsstm states the trade-off the paper's introduction frames: a
// bounded HTM falls off a capacity cliff, a software TM has no cliff but
// pays a barrier on every access, and HinTM gives the HTM the capacity
// without the barriers — while the same hints elide the STM's barriers, the
// STM lineage the paper cites (§II-C).
package htmvsstm

import (
	"fmt"

	"hintm/internal/harness"
	"hintm/internal/htm"
	"hintm/internal/hyp"
	"hintm/internal/sim"
)

func init() { hyp.Register(spec) }

// Metric indices.
const (
	mCycles = iota
	mCapacityAborts
	mFallbacks
)

// Level indices.
const (
	lP8 = iota
	lP8Hints
	lSTM
	lSTMHints
	lInfCap
)

// elisionFloor is the share of the STM's overhead over the ideal HTM that
// barrier elision must recover.
const elisionFloor = 0.5

var spec = &hyp.Spec{
	Name: "htm-vs-stm",
	Claim: "On bayes, the capacity-bound P8 loses to an STM that pays " +
		"per-access barriers but has no capacity cliff (mean cycles STM < " +
		"P8); P8+HinTM beats both; and STM+HinTM's barrier elision recovers " +
		"at least half of the STM's cycle overhead over the ideal InfCap HTM.",
	Refs: []string{
		"Safety Hints for HTM Capacity Abort Mitigation (HPCA 2023), §I and §II-A — bounded HTM capacity versus STM instrumentation cost",
		"Safety Hints for HTM Capacity Abort Mitigation (HPCA 2023), §II-C — STM barrier elision as HinTM's lineage",
	},
	Base:     harness.Request{Workload: "bayes", HTM: sim.HTMP8, Hints: sim.HintNone},
	Variable: "TM system",
	Levels: []hyp.Level{
		{Name: "P8"}, // control: the bounded HTM
		{Name: "P8+HinTM", Apply: func(q *harness.Request, o *harness.Options) { q.Hints = sim.HintFull }},
		{Name: "STM", Apply: func(q *harness.Request, o *harness.Options) { q.HTM = sim.HTMSTM }},
		{Name: "STM+HinTM", Apply: func(q *harness.Request, o *harness.Options) {
			q.HTM, q.Hints = sim.HTMSTM, sim.HintFull
		}},
		{Name: "InfCap", Apply: func(q *harness.Request, o *harness.Options) { q.HTM = sim.HTMInfCap }},
	},
	Seeds: []uint64{1, 2, 3, 4, 5},
	Metrics: []hyp.Metric{
		{Name: "cycles", Format: "%.0f",
			Extract: func(r *sim.Result) float64 { return float64(r.Cycles) }},
		{Name: "capacity aborts", Format: "%.0f",
			Extract: func(r *sim.Result) float64 { return float64(r.Aborts[htm.AbortCapacity]) }},
		{Name: "fallback commits", Format: "%.0f",
			Extract: func(r *sim.Result) float64 { return float64(r.FallbackCommits) }},
	},
	Judge: judge,
}

func judge(e *hyp.Evaluation) hyp.Outcome {
	p8, p8h := e.Mean(lP8, mCycles), e.Mean(lP8Hints, mCycles)
	stm, stmh, inf := e.Mean(lSTM, mCycles), e.Mean(lSTMHints, mCycles), e.Mean(lInfCap, mCycles)
	if stm <= inf {
		return hyp.Outcome{
			Verdict: hyp.Inconclusive,
			Reason: fmt.Sprintf("the STM (%.0f cycles) is no slower than InfCap (%.0f): no barrier overhead for elision to recover.",
				stm, inf),
		}
	}
	elided := (stm - stmh) / (stm - inf)
	reason := fmt.Sprintf("mean cycles P8 %.0f, STM %.0f, P8+HinTM %.0f, STM+HinTM %.0f, InfCap %.0f; barrier elision recovers %.1f%% of the STM's overhead over InfCap (floor %.0f%%).",
		p8, stm, p8h, stmh, inf, elided*100, elisionFloor*100)
	if stm < p8 && p8h < stm && p8h < p8 && elided >= elisionFloor {
		return hyp.Outcome{Verdict: hyp.Supported, Reason: reason}
	}
	return hyp.Outcome{Verdict: hyp.Refuted, Reason: reason}
}
