// Package hintsmultiplycapacity states the paper's §VI-E remark — HinTM
// achieves what hardware alone would need a larger buffer for — as a claim
// about the P8 buffer size: hints multiply the buffer's effective capacity,
// they do not create capacity that is not there.
package hintsmultiplycapacity

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

// Claim thresholds on HinTM's mean speedup over the unhinted P8 at the same
// buffer size.
const (
	// At 16 entries even the hinted transaction overflows: no gain.
	overflowCeiling = 1.0
	// At 32 and 64 entries the hints make the transaction fit.
	fitFloor = 2.0
	// At 128 entries the unhinted transaction already fits: neutral.
	neutralBand = 0.10
)

// sizes are the buffer sizes in level order; level 2i is size i unhinted
// and level 2i+1 the same size with HinTM.
var sizes = []int{64, 16, 32, 128}

func entries(n int) func(*harness.Request, *harness.Options) {
	return func(q *harness.Request, o *harness.Options) {
		if n != 64 { // 64 is Table II's size: keep the default request
			q.P8Entries = n
		}
	}
}

func hinted(n int) func(*harness.Request, *harness.Options) {
	return func(q *harness.Request, o *harness.Options) {
		entries(n)(q, o)
		q.Hints = sim.HintFull
	}
}

var spec = &hyp.Spec{
	Name: "hints-multiply-capacity",
	Claim: "On labyrinth, HinTM's hints multiply the P8 buffer's effective " +
		"capacity rather than create it. HinTM's mean speedup over the " +
		"unhinted P8 with the same buffer is at most 1.0x at 16 entries " +
		"(even the hinted transaction overflows), at least 2x at 32 and at " +
		"64 entries (the hints make it fit), and within 10% of 1x at 128 " +
		"entries (the unhinted transaction already fits).",
	Refs: []string{
		"Safety Hints for HTM Capacity Abort Mitigation (HPCA 2023), §VI-E — achieving the same effect solely with hardware requires larger buffering capacity",
	},
	Base:     harness.Request{Workload: "labyrinth", HTM: sim.HTMP8, Hints: sim.HintNone},
	Variable: "P8 buffer entries × hint mode",
	Levels: []hyp.Level{
		{Name: "64"}, // control: Table II's buffer, no hints
		{Name: "64+HinTM", Apply: hinted(64)},
		{Name: "16", Apply: entries(16)},
		{Name: "16+HinTM", Apply: hinted(16)},
		{Name: "32", Apply: entries(32)},
		{Name: "32+HinTM", Apply: hinted(32)},
		{Name: "128", Apply: entries(128)},
		{Name: "128+HinTM", Apply: hinted(128)},
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

// speedup returns HinTM's mean per-seed speedup over the unhinted run at
// the i-th buffer size.
func speedup(e *hyp.Evaluation, i int) float64 {
	base, hint := e.Values(2*i, mCycles), e.Values(2*i+1, mCycles)
	s := make([]float64, len(base))
	for k := range base {
		s[k] = base[k] / hint[k]
	}
	return stats.Mean(s)
}

func judge(e *hyp.Evaluation) hyp.Outcome {
	by := map[int]float64{}
	for i, n := range sizes {
		by[n] = speedup(e, i)
	}
	reason := fmt.Sprintf("mean HinTM speedup over the same-size P8 is %.2fx at 16 entries (ceiling %.1fx), %.2fx at 32 and %.2fx at 64 (floor %.0fx), %.2fx at 128 (band 1x ±%.0f%%).",
		by[16], overflowCeiling, by[32], by[64], fitFloor, by[128], neutralBand*100)
	ok := by[16] <= overflowCeiling && by[32] >= fitFloor && by[64] >= fitFloor &&
		by[128] >= 1-neutralBand && by[128] <= 1+neutralBand
	if ok {
		return hyp.Outcome{Verdict: hyp.Supported, Reason: reason}
	}
	return hyp.Outcome{Verdict: hyp.Refuted, Reason: reason}
}
