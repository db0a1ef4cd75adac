// Package signaturefalseconflicts probes the cost of P8S's Bloom-style
// read signature: shrinking it below the default 1024 bits must raise
// false-conflict aborts superlinearly and, past a point, measurable
// wall-clock slowdown — the hash collisions the paper's signature sizing
// is designed to keep negligible.
package signaturefalseconflicts

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
	mFalseRate = iota // false-conflict aborts per 1k HTM commits
	mCycles
	mCommits
)

// slowdownFloor is the minimum mean cycles(64-bit)/cycles(1024-bit) ratio
// for the "measurable slowdown" half of the claim.
const slowdownFloor = 1.05

var spec = &hyp.Spec{
	Name: "signature-false-conflicts",
	Claim: "On yada under SMT=2 — the deepest-footprint STAMP workload here — " +
		"shrinking the P8S read signature from 1024 bits induces false-conflict " +
		"aborts at a superlinearly growing rate (per 1k HTM commits) as bits " +
		"halve, and at 64 bits the collisions cost at least 5% wall-clock time " +
		"versus the 1024-bit default.",
	Refs: []string{
		"Safety Hints for HTM Capacity Abort Mitigation (HPCA 2023), §III — P8S PBX read-signature overflow handling",
		"The Influence of Malloc Placement on TSX Hardware Transactional Memory — https://arxiv.org/pdf/1504.04640 (address-aliasing abort pathologies)",
	},
	Base:     harness.Request{Workload: "yada", HTM: sim.HTMP8S, Hints: sim.HintNone, SMT: 2},
	Variable: "read-signature size (bits)",
	Levels: []hyp.Level{
		{Name: "1024b"}, // control: the architectural default
		{Name: "256b", Apply: func(q *harness.Request) { q.SigBits = 256 }},
		{Name: "128b", Apply: func(q *harness.Request) { q.SigBits = 128 }},
		{Name: "64b", Apply: func(q *harness.Request) { q.SigBits = 64 }},
	},
	Seeds: []uint64{1, 2, 3, 4, 5},
	Metrics: []hyp.Metric{
		{Name: "false-conflict aborts per 1k commits", Format: "%.1f",
			Extract: func(r *sim.Result) float64 {
				if r.Commits == 0 {
					return 0
				}
				return 1000 * float64(r.Aborts[htm.AbortFalseConflict]) / float64(r.Commits)
			}},
		{Name: "cycles", Format: "%.0f",
			Extract: func(r *sim.Result) float64 { return float64(r.Cycles) }},
		{Name: "HTM commits", Format: "%.0f",
			Extract: func(r *sim.Result) float64 { return float64(r.Commits) }},
	},
	Judge: judge,
}

func judge(e *hyp.Evaluation) hyp.Outcome {
	// Mean false-conflict rate per level, in level (= descending bits) order.
	rates := make([]float64, 4)
	for l := range rates {
		rates[l] = e.Mean(l, mFalseRate)
	}
	if rates[1] == 0 && rates[2] == 0 && rates[3] == 0 {
		return hyp.Outcome{
			Verdict: hyp.Inconclusive,
			Reason:  "no false-conflict aborts at any signature size — the workload's read set never stresses the signature at this scale.",
		}
	}
	for l := 1; l < len(rates); l++ {
		if rates[l] < rates[l-1] {
			return hyp.Outcome{
				Verdict: hyp.Refuted,
				Reason: fmt.Sprintf("false-conflict rate is not monotone in signature size: %s has mean %.1f/1k commits but %s has %.1f.",
					e.Spec.Levels[l].Name, rates[l], e.Spec.Levels[l-1].Name, rates[l-1]),
			}
		}
	}
	// Superlinear: halving bits twice (256 -> 64) must more than quadruple
	// the rate. A zero 256-bit rate leaves the ratio undefined.
	if rates[1] == 0 {
		return hyp.Outcome{
			Verdict: hyp.Inconclusive,
			Reason:  "256-bit signature shows no false conflicts, so the superlinearity ratio is undefined at this scale.",
		}
	}
	growth := rates[3] / rates[1]
	slowdown := e.Mean(3, mCycles) / e.Mean(0, mCycles)
	reason := fmt.Sprintf("mean false-conflict rate grows %.1f -> %.1f -> %.1f per 1k commits from 256b to 64b (%.1fx over a 4x bit reduction, superlinear needs > 4x); 64b runs %.1f%% slower than 1024b (floor %.0f%%).",
		rates[1], rates[2], rates[3], growth, (slowdown-1)*100, (slowdownFloor-1)*100)
	if growth > 4 && slowdown >= slowdownFloor {
		return hyp.Outcome{Verdict: hyp.Supported, Reason: reason}
	}
	return hyp.Outcome{Verdict: hyp.Refuted, Reason: reason}
}
