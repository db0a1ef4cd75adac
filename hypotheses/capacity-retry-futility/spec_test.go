package capacityretryfutility

import (
	"strings"
	"testing"

	"hintm/internal/hyp"
)

// evaluation builds a synthetic grid whose every seed of level l measures
// vals[l] (capacity aborts, HTM commits, cycles).
func evaluation(vals [][3]float64) *hyp.Evaluation {
	e := &hyp.Evaluation{Spec: spec}
	for l := range spec.Levels {
		var cells []hyp.Cell
		for _, seed := range spec.Seeds {
			cells = append(cells, hyp.Cell{Level: spec.Levels[l].Name, Seed: seed, Values: vals[l][:]})
		}
		e.Cells = append(e.Cells, cells)
	}
	return e
}

// TestZeroControlCommitsIsInconclusive: when the no-retry control commits
// nothing in hardware the HTM-commit growth factor is 0/0, and the judge
// must say so instead of judging a made-up 0.000x.
func TestZeroControlCommitsIsInconclusive(t *testing.T) {
	out := judge(evaluation([][3]float64{
		{20, 0, 1000}, // control
		{40, 0, 1010},
		{60, 0, 1020},
		{100, 0, 1040},
	}))
	if out.Verdict != hyp.Inconclusive {
		t.Fatalf("verdict = %v (%s), want INCONCLUSIVE", out.Verdict, out.Reason)
	}
	if !strings.Contains(out.Reason, "HTM commits") {
		t.Errorf("reason %q does not name the undefined metric", out.Reason)
	}
}

// TestFutileRetriesSupported: the futility pattern with non-zero control
// counts still judges as before.
func TestFutileRetriesSupported(t *testing.T) {
	out := judge(evaluation([][3]float64{
		{20, 10, 1000},
		{40, 10, 1010},
		{60, 10, 1020},
		{100, 10, 1040},
	}))
	if out.Verdict != hyp.Supported {
		t.Fatalf("verdict = %v (%s), want SUPPORTED", out.Verdict, out.Reason)
	}
}
