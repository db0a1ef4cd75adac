// Package capacityretryfutility tests the paper's §I premise: a transaction
// that overflowed the bounded HTM will overflow again, so retrying a
// capacity abort in hardware only wastes the attempt.
package capacityretryfutility

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
	mCapacityAborts = iota
	mCommits
	mCycles
)

// retries are the treatment levels' retry budgets, in level order after
// the no-retry control.
var retries = []int{1, 2, 4}

// Claim thresholds. Exact futility multiplies capacity aborts by n+1 at n
// retries (every retry overflows again); the claim allows 10% slack. A
// recovered commit is one the retries turn from fallback into HTM; the
// claim allows 1% more HTM commits than the control.
const (
	abortSlack  = 0.9
	commitSlack = 1.01
)

func budget(n int) func(*harness.Request) {
	return func(q *harness.Request) { q.CapacityRetries = n }
}

var spec = &hyp.Spec{
	Name: "capacity-retry-futility",
	Claim: "On bayes under P8, retrying capacity aborts is futile: granting a " +
		"capacity-aborted transaction n = 1, 2 or 4 HTM retries before the " +
		"fallback lock multiplies mean capacity aborts by at least 0.9(n+1) " +
		"(every retry overflows again), recovers no HTM commits (mean at " +
		"most 1% above the no-retry control), and costs cycles (mean above " +
		"the control's) at every n.",
	Refs: []string{
		"Safety Hints for HTM Capacity Abort Mitigation (HPCA 2023), §I — capacity aborts preclude retrying the transaction in hardware",
	},
	Base:     harness.Request{Workload: "bayes", HTM: sim.HTMP8, Hints: sim.HintNone},
	Variable: "HTM retries after a capacity abort",
	Levels: []hyp.Level{
		{Name: "0"}, // control: the paper's policy, fall back at once
		{Name: "1", Apply: budget(1)},
		{Name: "2", Apply: budget(2)},
		{Name: "4", Apply: budget(4)},
	},
	Seeds: []uint64{1, 2, 3, 4, 5},
	Metrics: []hyp.Metric{
		{Name: "capacity aborts", Format: "%.0f",
			Extract: func(r *sim.Result) float64 { return float64(r.Aborts[htm.AbortCapacity]) }},
		{Name: "HTM commits", Format: "%.0f",
			Extract: func(r *sim.Result) float64 { return float64(r.Commits) }},
		{Name: "cycles", Format: "%.0f",
			Extract: func(r *sim.Result) float64 { return float64(r.Cycles) }},
	},
	Judge: judge,
}

func judge(e *hyp.Evaluation) hyp.Outcome {
	if e.Mean(0, mCapacityAborts) == 0 {
		return hyp.Outcome{
			Verdict: hyp.Inconclusive,
			Reason:  "no capacity aborts without retries — nothing to retry at this scale.",
		}
	}
	// Every growth factor below divides by a control mean; a zero one (at
	// large scale bayes/P8 commits nothing in hardware) leaves it undefined.
	for m, metric := range e.Spec.Metrics {
		if _, ok := e.GrowthVsControl(1, m); !ok {
			return hyp.Outcome{
				Verdict: hyp.Inconclusive,
				Reason:  fmt.Sprintf("%s: the no-retry control's mean is 0, so the growth factor is undefined.", metric.Name),
			}
		}
	}
	verdict := hyp.Supported
	reason := ""
	for i, n := range retries {
		l := i + 1
		growth, _ := e.GrowthVsControl(l, mCapacityAborts)
		commits, _ := e.GrowthVsControl(l, mCommits)
		cycles, _ := e.GrowthVsControl(l, mCycles)
		if growth < abortSlack*float64(n+1) || commits > commitSlack || cycles <= 1 {
			verdict = hyp.Refuted
		}
		if reason != "" {
			reason += "; "
		}
		reason += fmt.Sprintf("%d retries: capacity aborts %.2fx (floor %.1fx), HTM commits %.3fx, cycles %.3fx",
			n, growth, abortSlack*float64(n+1), commits, cycles)
	}
	return hyp.Outcome{Verdict: verdict, Reason: reason + " of the no-retry control."}
}
