// Package fallbacklockconvoy probes the serial-fallback pathology hybrid
// TM is known for: as spurious aborts push more critical sections onto the
// global fallback lock, lock holders abort every concurrent hardware
// transaction, which converts yet more work to the lock — a convoy that
// grows fallback share faster than the injected abort probability alone
// explains, and costs wall-clock time.
package fallbacklockconvoy

import (
	"fmt"

	"hintm/internal/fault"
	"hintm/internal/harness"
	"hintm/internal/hyp"
	"hintm/internal/sim"
)

func init() { hyp.Register(spec) }

// Metric indices.
const (
	mFallbackShare = iota // fallback commits / all commits
	mCycles
	mHTMCommits
)

// Claim thresholds: moderate injection (p=0.5) must at least quadruple the
// clean fallback share (amplification — each lock holder aborts bystanders,
// so share grows faster than p alone explains), and heavy injection (p=0.9)
// must cost at least 10% wall-clock time versus clean.
const (
	amplification = 4.0
	slowdownFloor = 1.10
)

var spec = &hyp.Spec{
	Name: "fallback-lock-convoy",
	Claim: "On kmeans under P8, injecting spurious aborts with per-attempt " +
		"probability p convoys work onto the global fallback lock: the " +
		"fallback share of commits grows monotonically in p, at p=0.5 it is " +
		"at least 4x the clean share, and at p=0.9 the run is at least 10% " +
		"slower than clean.",
	Refs: []string{
		"Inherent Limitations of Hybrid Transactional Memory — https://arxiv.org/pdf/1405.5689 (instrumentation/fallback serialization costs)",
		"Safety Hints for HTM Capacity Abort Mitigation (HPCA 2023), §II — retry budget and serial fallback path",
	},
	Base:     harness.Request{Workload: "kmeans", HTM: sim.HTMP8, Hints: sim.HintNone},
	Variable: "injected spurious-abort probability",
	Levels: []hyp.Level{
		{Name: "clean"}, // control: no fault plan
		{Name: "p=0.2", Apply: func(q *harness.Request) {
			q.Faults = fault.Plan{SpuriousProb: 0.2}
		}},
		{Name: "p=0.5", Apply: func(q *harness.Request) {
			q.Faults = fault.Plan{SpuriousProb: 0.5}
		}},
		{Name: "p=0.9", Apply: func(q *harness.Request) {
			q.Faults = fault.Plan{SpuriousProb: 0.9}
		}},
	},
	Seeds: []uint64{1, 2, 3, 4, 5},
	Metrics: []hyp.Metric{
		{Name: "fallback share of commits", Format: "%.3f",
			Extract: func(r *sim.Result) float64 {
				total := r.Commits + r.FallbackCommits
				if total == 0 {
					return 0
				}
				return float64(r.FallbackCommits) / float64(total)
			}},
		{Name: "cycles", Format: "%.0f",
			Extract: func(r *sim.Result) float64 { return float64(r.Cycles) }},
		{Name: "HTM commits", Format: "%.0f",
			Extract: func(r *sim.Result) float64 { return float64(r.Commits) }},
	},
	Judge: judge,
}

func judge(e *hyp.Evaluation) hyp.Outcome {
	shares := make([]float64, 4)
	for l := range shares {
		shares[l] = e.Mean(l, mFallbackShare)
	}
	for l := 1; l < len(shares); l++ {
		if shares[l] < shares[l-1] {
			return hyp.Outcome{
				Verdict: hyp.Refuted,
				Reason: fmt.Sprintf("fallback share is not monotone in p: %s has mean share %.3f but %s has %.3f.",
					e.Spec.Levels[l].Name, shares[l], e.Spec.Levels[l-1].Name, shares[l-1]),
			}
		}
	}
	// Amplification at p=0.5. A clean share of exactly zero makes the ratio
	// undefined; fall back to an absolute bar of 10% of commits on the lock.
	amplified := false
	var ampText string
	if shares[0] > 0 {
		ratio := shares[2] / shares[0]
		amplified = ratio >= amplification
		ampText = fmt.Sprintf("p=0.5 share %.3f is %.1fx clean's %.3f (needs >= %.0fx)", shares[2], ratio, shares[0], amplification)
	} else {
		amplified = shares[2] >= 0.10
		ampText = fmt.Sprintf("clean share is 0, p=0.5 share %.3f (absolute bar 0.100)", shares[2])
	}
	slowdown := e.Mean(3, mCycles) / e.Mean(0, mCycles)
	reason := fmt.Sprintf("%s; p=0.9 runs %.1f%% slower than clean (floor %.0f%%).",
		ampText, (slowdown-1)*100, (slowdownFloor-1)*100)
	if amplified && slowdown >= slowdownFloor {
		return hyp.Outcome{Verdict: hyp.Supported, Reason: reason}
	}
	return hyp.Outcome{Verdict: hyp.Refuted, Reason: reason}
}
