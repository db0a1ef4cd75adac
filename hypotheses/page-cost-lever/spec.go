// Package pagecostlever quantifies the paper's §VI-B future-work remark:
// dynamic hints pay for every page-mode transition with a minor fault and,
// when remote TLBs hold the page, a TLB shootdown, so cheaper transitions
// are the lever that turns HinTM-dyn's losses around.
package pagecostlever

import (
	"fmt"

	"hintm/internal/harness"
	"hintm/internal/hyp"
	"hintm/internal/sim"
)

func init() { hyp.Register(spec) }

// Metric indices.
const (
	mCycles = iota
	mPageModeCycles
	mTransitions
)

// Level indices.
const (
	lTableII = iota
	lDouble
	lHalf
	lFree
)

// recoveryFloor is the share of the near-free saving that halving the
// costs must recover.
const recoveryFloor = 1.0 / 3

func cost(pct int) func(*harness.Request) {
	return func(q *harness.Request) { q.PageCostPct = pct }
}

var spec = &hyp.Spec{
	Name: "page-cost-lever",
	Claim: "On vacation under HinTM-dyn, page-mode transition cost is the " +
		"lever for dynamic hints: mean cycles fall strictly as the minor-fault " +
		"and both TLB-shootdown costs scale from 200% through Table II's 100% " +
		"and 50% to a near-free 1%, and halving the costs recovers at least a " +
		"third of the cycles that near-free transitions save over Table II.",
	Refs: []string{
		"Safety Hints for HTM Capacity Abort Mitigation (HPCA 2023), §VI-B — motivates investigating reduced page mode transition penalties",
	},
	Base:     harness.Request{Workload: "vacation", HTM: sim.HTMP8, Hints: sim.HintDynamic},
	Variable: "page-mode transition cost (% of Table II)",
	Levels: []hyp.Level{
		{Name: "100%"}, // control: Table II's 1450/6600/1450 cycles
		{Name: "200%", Apply: cost(200)},
		{Name: "50%", Apply: cost(50)},
		{Name: "1%", Apply: cost(1)},
	},
	Seeds: []uint64{1, 2, 3, 4, 5},
	Metrics: []hyp.Metric{
		{Name: "cycles", Format: "%.0f",
			Extract: func(r *sim.Result) float64 { return float64(r.Cycles) }},
		{Name: "page-mode cycles", Format: "%.0f",
			Extract: func(r *sim.Result) float64 { return float64(r.PageModeCycles) }},
		{Name: "page transitions", Format: "%.0f",
			Extract: func(r *sim.Result) float64 { return float64(r.VM.Transitions) }},
	},
	Judge: judge,
}

func judge(e *hyp.Evaluation) hyp.Outcome {
	double, table, half, free := e.Mean(lDouble, mCycles), e.Mean(lTableII, mCycles),
		e.Mean(lHalf, mCycles), e.Mean(lFree, mCycles)
	if e.Mean(lTableII, mTransitions) == 0 {
		return hyp.Outcome{
			Verdict: hyp.Inconclusive,
			Reason:  "no page-mode transitions under HinTM-dyn — the cost has nothing to act on at this scale.",
		}
	}
	if !(double > table && table > half && half > free) {
		return hyp.Outcome{
			Verdict: hyp.Refuted,
			Reason: fmt.Sprintf("mean cycles are not strictly decreasing in transition cost: %.0f at 200%%, %.0f at 100%%, %.0f at 50%%, %.0f at 1%%.",
				double, table, half, free),
		}
	}
	recovered := (table - half) / (table - free)
	reason := fmt.Sprintf("mean cycles %.0f at 200%%, %.0f at 100%%, %.0f at 50%%, %.0f at 1%%; halving the costs recovers %.1f%% of the near-free saving (floor %.1f%%).",
		double, table, half, free, recovered*100, recoveryFloor*100)
	if recovered >= recoveryFloor {
		return hyp.Outcome{Verdict: hyp.Supported, Reason: reason}
	}
	return hyp.Outcome{Verdict: hyp.Refuted, Reason: reason}
}
