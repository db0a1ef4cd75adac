package hyp

import (
	"bytes"
	"fmt"
	"strings"

	"hintm/internal/stats"
)

// FINDINGS.md generation. Render is a pure function of the evaluation:
// fixed section order, fixed-precision number formatting, no timestamps,
// no environment — the same spec, scale, and seeds produce the same bytes
// on every run, which is what lets hypotheses.TestFindings pin the
// committed findings byte for byte and what the content-addressed store
// makes cheap (a warm pass simulates nothing).

// Render produces the complete FINDINGS.md contents for a measured
// evaluation.
func Render(e *Evaluation) []byte {
	var b bytes.Buffer
	spec := e.Spec
	fmt.Fprintf(&b, "# Hypothesis: %s\n\n", spec.Name)
	fmt.Fprintf(&b, "**Claim.** %s\n\n", spec.Claim)
	fmt.Fprintf(&b, "**Verdict: %s** — %s\n", e.Outcome.Verdict, e.Outcome.Reason)
	if len(spec.Refs) > 0 {
		fmt.Fprintf(&b, "\nReferences:\n\n")
		for _, r := range spec.Refs {
			fmt.Fprintf(&b, "- %s\n", r)
		}
	}

	fmt.Fprintf(&b, "\n## Method\n\n")
	fmt.Fprintf(&b, "One-variable-at-a-time grid over **%s**; every other run determinant is\nfixed at the base request. The first level is the control; effect sizes are\nCohen's d versus it, across seeds.\n\n", spec.Variable)
	fmt.Fprintf(&b, "- base request: `%s` at scale `%s`\n", e.Cells[0][0].Request, e.Scale)
	names := make([]string, len(spec.Levels))
	for i, l := range spec.Levels {
		names[i] = "`" + l.Name + "`"
	}
	fmt.Fprintf(&b, "- levels: %s (first = control)\n", strings.Join(names, ", "))
	seeds := make([]string, len(spec.Seeds))
	for i, s := range spec.Seeds {
		seeds[i] = fmt.Sprint(s)
	}
	fmt.Fprintf(&b, "- seeds: %s\n", strings.Join(seeds, ", "))
	fmt.Fprintf(&b, "- grid: %d levels × %d seeds = %d simulations\n",
		len(spec.Levels), len(spec.Seeds), len(spec.Levels)*len(spec.Seeds))

	fmt.Fprintf(&b, "\n## Results\n")
	for m, metric := range spec.Metrics {
		fmt.Fprintf(&b, "\n### %s\n\n", metric.Name)
		header := []string{"level"}
		for _, s := range spec.Seeds {
			header = append(header, fmt.Sprintf("seed %d", s))
		}
		header = append(header, "mean", "median", "min", "max", "stddev", "effect(d)")
		t := stats.NewTable(header...)
		for l := range spec.Levels {
			row := []any{spec.Levels[l].Name}
			for s := range spec.Seeds {
				row = append(row, fmt.Sprintf(metric.Format, e.Cells[l][s].Values[m]))
			}
			sum := e.Summary(l, m)
			row = append(row,
				fmt.Sprintf(metric.Format, sum.Mean),
				fmt.Sprintf(metric.Format, sum.Median),
				fmt.Sprintf(metric.Format, sum.Min),
				fmt.Sprintf(metric.Format, sum.Max),
				fmt.Sprintf("%.3f", sum.StdDev),
				effectCell(e, l, m))
			t.Row(row...)
		}
		fmt.Fprintf(&b, "```\n%s```\n", t.String())
	}

	fmt.Fprintf(&b, "\n## Reproduce\n\n")
	fmt.Fprintf(&b, "```\ngo run ./cmd/hintm-exp -scale %s -hypothesis %s run\ngo test ./hypotheses -run TestFindings\n```\n\n", e.Scale, spec.Name)
	fmt.Fprintf(&b, "Every cell is a seeded-deterministic, content-addressed simulation:\n`run` re-runs the grid and prints the verdict (warm cells are store\nrecalls, not simulations — pass `-store DIR` to keep one). `TestFindings`\nre-runs the whole catalogue and diffs this file byte-for-byte against the\nevaluation; `-update` rewrites it.\n")
	return b.Bytes()
}

// effectCell renders one effect-size cell: "control" on the control row,
// Cohen's d elsewhere, "n/a" when the statistic is undefined.
func effectCell(e *Evaluation, l, m int) string {
	if l == 0 {
		return "control"
	}
	d, ok := e.Effect(l, m)
	if !ok {
		return "n/a"
	}
	return fmt.Sprintf("%+.2f", d)
}
