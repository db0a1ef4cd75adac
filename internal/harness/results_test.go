package harness

import (
	"context"
	"encoding/json"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchResultsFixture produces a small but real BenchResults via the
// harness (memoized, so the cost is one tiny grid).
func benchResultsFixture(t *testing.T) *BenchResults {
	t.Helper()
	opts := QuickOptions()
	opts.Filter = []string{"labyrinth"}
	r := NewRunner(opts)
	sum, err := r.BenchResults(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sum.WallSeconds = 1.25
	return sum
}

func TestBenchResultsJSONRoundTrip(t *testing.T) {
	sum := benchResultsFixture(t)
	var sb strings.Builder
	if err := sum.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}

	got, err := ReadBenchResults(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(sum)
	b2, _ := json.Marshal(got)
	if string(b1) != string(b2) {
		t.Errorf("round-trip changed the summary:\n%s\nvs\n%s", b1, b2)
	}
}

func TestBenchResultsSchemaField(t *testing.T) {
	sum := benchResultsFixture(t)
	if sum.Schema != BenchResultsSchema {
		t.Fatalf("Schema = %q, want %q", sum.Schema, BenchResultsSchema)
	}
	var sb strings.Builder
	sum.WriteJSON(&sb)
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(sb.String()), &raw); err != nil {
		t.Fatal(err)
	}
	if string(raw["schema"]) != `"`+BenchResultsSchema+`"` {
		t.Errorf("emitted schema field = %s", raw["schema"])
	}

	// A wrong or older schema is rejected with a regeneration hint, not
	// misparsed.
	for _, stale := range []string{"hintm-bench-results/v0", "hintm-bench-results/v3"} {
		bad := strings.Replace(sb.String(), BenchResultsSchema, stale, 1)
		if _, err := ReadBenchResults(strings.NewReader(bad)); err == nil ||
			!strings.Contains(err.Error(), "schema") {
			t.Errorf("stale schema %s accepted: %v", stale, err)
		}
	}
}

// TestBenchResultsStableKeyOrdering asserts the emitted JSON is
// byte-deterministic: two encodings of one summary are identical, and the
// figure keys appear in sorted order (encoding/json sorts map keys — this
// pins that the summary keeps relying on it, so baselines diff cleanly).
func TestBenchResultsStableKeyOrdering(t *testing.T) {
	sum := benchResultsFixture(t)
	var a, b strings.Builder
	sum.WriteJSON(&a)
	sum.WriteJSON(&b)
	if a.String() != b.String() {
		t.Fatal("two encodings of the same summary differ")
	}

	keyRe := regexp.MustCompile(`"(fig\d)":`)
	var keys []string
	for _, m := range keyRe.FindAllStringSubmatch(a.String(), -1) {
		keys = append(keys, m[1])
	}
	if len(keys) < 2 {
		t.Fatalf("expected several figure keys, got %v", keys)
	}
	if !sort.StringsAreSorted(keys) {
		t.Errorf("figure keys not sorted in output: %v", keys)
	}
}

func headline(sp float64) *FigureHeadline {
	return &FigureHeadline{Rows: 5, GeomeanSpeedup: sp, GeomeanSpeedupInf: sp + 0.2, MeanCapAbortReduction: 0.8}
}

func baseSummary() *BenchResults {
	return &BenchResults{
		Schema: BenchResultsSchema, Scale: "small", LargeScale: "small", Seed: 1,
		Figures: map[string]*FigureHeadline{"fig4": headline(1.5), "fig7": headline(1.4)},
	}
}

func TestDiffBenchResultsCleanOnIdentical(t *testing.T) {
	if regs := DiffBenchResults(baseSummary(), baseSummary(), DiffOptions{Tolerance: 0.05}); len(regs) != 0 {
		t.Errorf("identical summaries flagged: %v", regs)
	}
}

func TestDiffBenchResultsFlagsRegressions(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*BenchResults)
		want   string
	}{
		{"speedup drop", func(b *BenchResults) { b.Figures["fig4"].GeomeanSpeedup = 1.2 }, "geomeanSpeedup"},
		{"failed rows", func(b *BenchResults) { b.Figures["fig7"].Failed = 2 }, "failed rows"},
		{"row count", func(b *BenchResults) { b.Figures["fig4"].Rows = 3 }, "grid changed"},
		{"missing figure", func(b *BenchResults) { delete(b.Figures, "fig7") }, "missing"},
		{"new error", func(b *BenchResults) { b.Errors = map[string]string{"fig4": "boom"} }, "new error"},
		{"seed mismatch", func(b *BenchResults) { b.Seed = 2 }, "seed mismatch"},
	}
	for _, tc := range cases {
		cur := baseSummary()
		tc.mutate(cur)
		regs := DiffBenchResults(baseSummary(), cur, DiffOptions{Tolerance: 0.05})
		if len(regs) == 0 || !strings.Contains(strings.Join(regs, "\n"), tc.want) {
			t.Errorf("%s: regressions = %v, want mention of %q", tc.name, regs, tc.want)
		}
	}

	// Drifting metrics flag movement in either direction.
	base := baseSummary()
	base.Figures["fig4"].MeanCapacityTime = 0.20
	for _, v := range []float64{0.30, 0.10} {
		cur := baseSummary()
		cur.Figures["fig4"].MeanCapacityTime = v
		regs := DiffBenchResults(base, cur, DiffOptions{Tolerance: 0.05})
		if !strings.Contains(strings.Join(regs, "\n"), "drifted") {
			t.Errorf("capacity-time %v -> %v not flagged: %v", 0.20, v, regs)
		}
	}
}

func TestDiffBenchResultsRespectsTolerance(t *testing.T) {
	cur := baseSummary()
	cur.Figures["fig4"].GeomeanSpeedup = 1.5 * 0.97 // a 3% dip
	if regs := DiffBenchResults(baseSummary(), cur, DiffOptions{Tolerance: 0.05}); len(regs) != 0 {
		t.Errorf("3%% dip flagged at 5%% tolerance: %v", regs)
	}
	if regs := DiffBenchResults(baseSummary(), cur, DiffOptions{Tolerance: 0.01}); len(regs) == 0 {
		t.Error("3% dip not flagged at 1% tolerance")
	}
	// An improvement is never a regression.
	cur.Figures["fig4"].GeomeanSpeedup = 2.0
	if regs := DiffBenchResults(baseSummary(), cur, DiffOptions{Tolerance: 0.01}); len(regs) != 0 {
		t.Errorf("improvement flagged: %v", regs)
	}
}

func TestDiffBenchResultsFlagsWallTimeRegression(t *testing.T) {
	base := baseSummary()
	base.WallSeconds = 10

	// Within the wide wall gate (50% at default tolerance): clean.
	cur := baseSummary()
	cur.WallSeconds = 13
	if regs := DiffBenchResults(base, cur, DiffOptions{Tolerance: 0.05}); len(regs) != 0 {
		t.Errorf("sub-gate wall noise flagged: %v", regs)
	}

	// Beyond it: flagged.
	cur.WallSeconds = 16
	regs := strings.Join(DiffBenchResults(base, cur, DiffOptions{Tolerance: 0.05}), "\n")
	if !strings.Contains(regs, "wallSeconds 10.00 -> 16.00") {
		t.Errorf("whole-run wall regression not flagged: %v", regs)
	}

	// Wall improvements are never regressions.
	cur.WallSeconds = 2
	if regs := DiffBenchResults(base, cur, DiffOptions{Tolerance: 0.05}); len(regs) != 0 {
		t.Errorf("wall improvement flagged: %v", regs)
	}
}

// MinWallSeconds moves the relative-gate floor: the same wall move must be
// ignored below the floor and flagged above it, from both directions.
func TestDiffOptionsMinWallSeconds(t *testing.T) {
	base := baseSummary()
	base.WallSeconds = 0.02 // below the 0.05 default floor
	cur := baseSummary()
	cur.WallSeconds = 10

	// Default floor: a 0.02s baseline is noise, never gated.
	if regs := DiffBenchResults(base, cur, DiffOptions{Tolerance: 0.05}); len(regs) != 0 {
		t.Errorf("sub-default-floor baseline gated: %v", regs)
	}
	// Lowered floor: the same move is now a real regression.
	o := DiffOptions{Tolerance: 0.05, MinWallSeconds: 0.01}
	if regs := DiffBenchResults(base, cur, o); len(regs) == 0 {
		t.Error("lowered floor did not gate a 500x wall regression")
	}
	// Raised floor: baselines under it are exempt even when the default
	// would have gated them.
	base.WallSeconds = 1
	cur.WallSeconds = 100
	if regs := DiffBenchResults(base, cur, DiffOptions{Tolerance: 0.05, MinWallSeconds: 5}); len(regs) != 0 {
		t.Errorf("raised floor still gated a 1s baseline: %v", regs)
	}
	if regs := DiffBenchResults(base, cur, DiffOptions{Tolerance: 0.05}); len(regs) == 0 {
		t.Error("default floor missed a 100x regression on a 1s baseline")
	}
}
