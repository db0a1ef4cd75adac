// Package hintsremovefalseconflicts is the HinTM half of the signature
// study whose size half is signature-false-conflicts: a hinted-safe read
// never enters the P8S read signature, so classification acts like a
// signature that only ever sees unsafe addresses, and the false conflicts
// a small signature produces mostly disappear.
package hintsremovefalseconflicts

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
	mFalseConflicts = iota
	mCycles
	mCommits
)

// removalFloor is the share of a size's false-conflict aborts HinTM must
// remove.
const removalFloor = 0.90

// bits are the signature sizes in level order; level 2i is size i
// unhinted and level 2i+1 the same size with HinTM.
var bits = []uint64{1024, 256, 128}

func sig(b uint64, hints sim.HintMode) func(*harness.Request) {
	return func(q *harness.Request) {
		if b != 1024 { // 1024 is the architectural default: keep the default request
			q.SigBits = b
		}
		q.Hints = hints
	}
}

var spec = &hyp.Spec{
	Name: "hints-remove-false-conflicts",
	Claim: "On yada under SMT=2 with a P8S read signature of 1024, 256 or " +
		"128 bits, HinTM removes at least 90% of the false-conflict aborts " +
		"the unhinted P8S suffers at the same size, at every size where the " +
		"unhinted run has any.",
	Refs: []string{
		"Safety Hints for HTM Capacity Abort Mitigation (HPCA 2023), §III — P8S PBX read-signature overflow handling",
	},
	Base:     harness.Request{Workload: "yada", HTM: sim.HTMP8S, Hints: sim.HintNone, SMT: 2},
	Variable: "read-signature size (bits) × hint mode",
	Levels: []hyp.Level{
		{Name: "1024b"}, // control: the architectural default, no hints
		{Name: "1024b+HinTM", Apply: sig(1024, sim.HintFull)},
		{Name: "256b", Apply: sig(256, sim.HintNone)},
		{Name: "256b+HinTM", Apply: sig(256, sim.HintFull)},
		{Name: "128b", Apply: sig(128, sim.HintNone)},
		{Name: "128b+HinTM", Apply: sig(128, sim.HintFull)},
	},
	Seeds: []uint64{1, 2, 3, 4, 5},
	Metrics: []hyp.Metric{
		{Name: "false-conflict aborts", Format: "%.0f",
			Extract: func(r *sim.Result) float64 { return float64(r.Aborts[htm.AbortFalseConflict]) }},
		{Name: "cycles", Format: "%.0f",
			Extract: func(r *sim.Result) float64 { return float64(r.Cycles) }},
		{Name: "HTM commits", Format: "%.0f",
			Extract: func(r *sim.Result) float64 { return float64(r.Commits) }},
	},
	Judge: judge,
}

func judge(e *hyp.Evaluation) hyp.Outcome {
	verdict := hyp.Supported
	reason := ""
	judged := 0
	for i, b := range bits {
		base, hint := e.Mean(2*i, mFalseConflicts), e.Mean(2*i+1, mFalseConflicts)
		if reason != "" {
			reason += "; "
		}
		if base == 0 {
			reason += fmt.Sprintf("%db: no unhinted false conflicts", b)
			continue
		}
		judged++
		removed := 1 - hint/base
		if removed < removalFloor {
			verdict = hyp.Refuted
		}
		reason += fmt.Sprintf("%db: %.1f -> %.1f mean false-conflict aborts (%.1f%% removed)", b, base, hint, removed*100)
	}
	if judged == 0 {
		verdict = hyp.Inconclusive
	}
	return hyp.Outcome{Verdict: verdict, Reason: fmt.Sprintf("%s; floor %.0f%%.", reason, removalFloor*100)}
}
