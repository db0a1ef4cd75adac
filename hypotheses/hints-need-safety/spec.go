// Package hintsneedsafety states HinTM's honest negative as a falsifiable
// experiment: safety hints only shrink a footprint the classifiers can
// prove safe. On intset-ll — a sorted linked list every thread walks and
// writes — nothing is thread-private or read-only, so the hints cannot
// help, while hardware that simply tracks more (P8S, InfCap) still can.
package hintsneedsafety

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
	mSafeShare
	mCapacityAborts
)

// Level indices.
const (
	lP8 = iota
	lP8Hints
	lP8S
	lInfCap
)

// Claim thresholds: HinTM marks under safeCeiling of the transactional
// accesses safe, and each larger-capacity HTM is at least capacityGain
// faster than P8 (mean cycles).
const (
	safeCeiling  = 0.10
	capacityGain = 1.10
)

// safeShare is the fraction of transactional accesses a hint marked safe.
func safeShare(r *sim.Result) float64 {
	safe := r.StaticSafeAccesses + r.DynSafeAccesses
	if total := safe + r.UnsafeTxAccesses; total > 0 {
		return float64(safe) / float64(total)
	}
	return 0
}

var spec = &hyp.Spec{
	Name: "hints-need-safety",
	Claim: "On intset-ll, a sorted linked list every transaction pointer-chases " +
		"and writes, safety hints have nothing to prove safe: P8+HinTM marks " +
		"under 10% of transactional accesses safe and is no faster than P8 " +
		"(mean cycles at least P8's), while the larger-capacity HTMs P8S and " +
		"InfCap are each at least 10% faster than P8 (mean cycles).",
	Refs: []string{
		"Safety Hints for HTM Capacity Abort Mitigation (HPCA 2023), §IV — hints mark only provably thread-private or read-only accesses safe",
		"Safety Hints for HTM Capacity Abort Mitigation (HPCA 2023), §V — P8S and InfCap as larger-capacity baselines",
	},
	Base:     harness.Request{Workload: "intset-ll", HTM: sim.HTMP8, Hints: sim.HintNone},
	Variable: "HTM/hint configuration",
	Levels: []hyp.Level{
		lP8:      {Name: "P8"}, // control: bounded baseline, no hints
		lP8Hints: {Name: "P8+HinTM", Apply: func(q *harness.Request) { q.Hints = sim.HintFull }},
		lP8S:     {Name: "P8S", Apply: func(q *harness.Request) { q.HTM = sim.HTMP8S }},
		lInfCap:  {Name: "InfCap", Apply: func(q *harness.Request) { q.HTM = sim.HTMInfCap }},
	},
	Seeds: []uint64{1, 2, 3, 4, 5},
	Metrics: []hyp.Metric{
		{Name: "cycles", Format: "%.0f",
			Extract: func(r *sim.Result) float64 { return float64(r.Cycles) }},
		{Name: "safe share of transactional accesses", Format: "%.4f", Extract: safeShare},
		{Name: "capacity aborts", Format: "%.0f",
			Extract: func(r *sim.Result) float64 { return float64(r.Aborts[htm.AbortCapacity]) }},
	},
	Judge: judge,
}

// judge compares mean cycles as speedups over the P8 control (control mean
// over level mean) and checks HinTM's mean safe share.
func judge(e *hyp.Evaluation) hyp.Outcome {
	speedup := func(l int) float64 { return e.Mean(lP8, mCycles) / e.Mean(l, mCycles) }
	hints, p8s, inf := speedup(lP8Hints), speedup(lP8S), speedup(lInfCap)
	safe := e.Mean(lP8Hints, mSafeShare)
	reason := fmt.Sprintf("P8+HinTM marks %.1f%% of transactional accesses safe (ceiling %.0f%%) and runs at %.3fx P8's speed (ceiling 1x); P8S %.3fx and InfCap %.3fx (floor %.2fx).",
		safe*100, safeCeiling*100, hints, p8s, inf, capacityGain)
	if safe < safeCeiling && hints <= 1 && p8s >= capacityGain && inf >= capacityGain {
		return hyp.Outcome{Verdict: hyp.Supported, Reason: reason}
	}
	return hyp.Outcome{Verdict: hyp.Refuted, Reason: reason}
}
