package hyp

import (
	"bytes"
	"strings"
	"testing"

	"hintm/internal/harness"
	"hintm/internal/sim"
	"hintm/internal/workloads"
)

// syntheticEval builds a fully populated evaluation without the simulator:
// values[l][s] feed the metric directly.
func syntheticEval(values [][]float64, judge func(*Evaluation) Outcome) *Evaluation {
	spec := &Spec{
		Name:     "synthetic",
		Claim:    "synthetic claim with a threshold of 2x",
		Refs:     []string{"Someone et al., Somewhere 2020"},
		Base:     harness.Request{Workload: "ssca2", HTM: sim.HTMP8},
		Variable: "knob",
		Seeds:    []uint64{1, 2, 3},
		Metrics: []Metric{
			{Name: "widgets", Format: "%.1f", Extract: func(*sim.Result) float64 { return 0 }},
		},
		Judge: judge,
	}
	e := &Evaluation{Spec: spec, Scale: workloads.Small}
	for l, lv := range values {
		name := "control"
		if l > 0 {
			name = "treatment"
		}
		spec.Levels = append(spec.Levels, Level{Name: name})
		var cells []Cell
		for s, v := range lv {
			cells = append(cells, Cell{
				Level:   name,
				Seed:    spec.Seeds[s],
				Request: spec.Base,
				Values:  []float64{v},
			})
		}
		e.Cells = append(e.Cells, cells)
	}
	e.Outcome = judge(e)
	return e
}

// effectJudge mirrors how real hypotheses guard effect sizes: an undefined
// Cohen's d (zero pooled variance, the deterministic-simulator case) must
// yield INCONCLUSIVE, never a divide-by-zero verdict.
func effectJudge(e *Evaluation) Outcome {
	d, ok := e.Effect(1, 0)
	if !ok {
		return Outcome{Verdict: Inconclusive, Reason: "effect size undefined (zero variance across seeds)"}
	}
	if d > 0 {
		return Outcome{Verdict: Supported, Reason: "positive effect"}
	}
	return Outcome{Verdict: Refuted, Reason: "no positive effect"}
}

func TestZeroVarianceIsInconclusive(t *testing.T) {
	// Identical constant samples at both levels: no spread, no effect size.
	e := syntheticEval([][]float64{{5, 5, 5}, {9, 9, 9}}, effectJudge)
	if e.Outcome.Verdict != Inconclusive {
		t.Fatalf("zero-variance verdict = %v, want INCONCLUSIVE", e.Outcome.Verdict)
	}
	if got := Render(e); !bytes.Contains(got, []byte("n/a")) {
		t.Error("undefined effect not rendered as n/a")
	}
	// With spread the same judge resolves.
	e = syntheticEval([][]float64{{4, 5, 6}, {8, 9, 10}}, effectJudge)
	if e.Outcome.Verdict != Supported {
		t.Fatalf("well-defined verdict = %v, want SUPPORTED", e.Outcome.Verdict)
	}
}

func TestEvaluationAggregates(t *testing.T) {
	e := syntheticEval([][]float64{{2, 4, 6}, {8, 10, 12}}, effectJudge)
	if got := e.Mean(1, 0); got != 10 {
		t.Errorf("Mean = %v", got)
	}
	if sum := e.Summary(0, 0); sum.Median != 4 || sum.Min != 2 || sum.Max != 6 {
		t.Errorf("Summary = %+v", sum)
	}
	ratio, ok := e.GrowthVsControl(1, 0)
	if !ok || ratio != 2.5 {
		t.Errorf("GrowthVsControl = %v, %v", ratio, ok)
	}
	zero := syntheticEval([][]float64{{0, 0, 0}, {1, 2, 3}}, effectJudge)
	if _, ok := zero.GrowthVsControl(1, 0); ok {
		t.Error("zero-control growth factor should be undefined")
	}
	if _, ok := e.Effect(0, 0); ok {
		t.Error("control-vs-control effect should be undefined")
	}
}

func TestRenderDeterministicAndComplete(t *testing.T) {
	e := syntheticEval([][]float64{{4, 5, 6}, {8, 9, 10}}, effectJudge)
	a, b := Render(e), Render(e)
	if !bytes.Equal(a, b) {
		t.Fatal("Render is not deterministic")
	}
	text := string(a)
	for _, want := range []string{
		"# Hypothesis: synthetic",
		"**Claim.** synthetic claim",
		"**Verdict: SUPPORTED**",
		"Someone et al.",
		"## Method",
		"- levels: `control`, `treatment` (first = control)",
		"- seeds: 1, 2, 3",
		"2 levels × 3 seeds = 6 simulations",
		"### widgets",
		"## Reproduce",
		"-hypothesis synthetic run",
		"go test ./hypotheses -run TestFindings",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered findings missing %q", want)
		}
	}
}
