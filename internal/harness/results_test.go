package harness

import (
	"context"
	"encoding/json"
	"regexp"
	"sort"
	"strings"
	"testing"

	"hintm/internal/sim"
)

// benchResultsFixture produces a small but real BenchResults via the
// harness (memoized, so the cost is one tiny grid).
func benchResultsFixture(t *testing.T) *BenchResults {
	t.Helper()
	sum, err := quick("labyrinth").BenchResults(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sum.WallSeconds = 1.25
	return sum
}

// TestResultsDocumentFig1MatchesProfile decodes the document and checks
// that Fig. 1's rows carry the profiled run's whole sharing report, not
// just the plotted fractions.
func TestResultsDocumentFig1MatchesProfile(t *testing.T) {
	r := quick("labyrinth")
	sum, err := r.BenchResults(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := sum.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"fig1"`, `"fig4"`, `"fig6"`, `"SpeedupFull"`, `"geomean"`} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("document missing %q", want)
		}
	}
	doc, err := ReadBenchResults(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Fig1 == nil || len(doc.Fig1.Rows) != 1 || doc.Fig1.Rows[0].Failed {
		t.Fatalf("fig1 = %+v, want one labyrinth row", doc.Fig1)
	}
	prof := r.report(req("labyrinth", r.opts.Scale, sim.HTMInfCap, sim.HintNone))
	if prof == nil {
		t.Fatal("no stored profile report for the labyrinth InfCap run")
	}
	row := doc.Fig1.Rows[0]
	if row.SafeBlocks != prof.SafeBlockFrac || row.Blocks != prof.Blocks ||
		row.Pages != prof.Pages || row.TxAccesses != prof.TxAccesses {
		t.Errorf("fig1 row %+v disagrees with profile report %+v", row, *prof)
	}
	if row.Blocks == 0 || row.Pages == 0 || row.TxAccesses == 0 {
		t.Errorf("fig1 row totals are zero: %+v", row)
	}
	// With one row, the mean is that row's fractions.
	if m := doc.Fig1.Mean; m.CapacityTime != row.CapacityTime || m.SafeReadsBlock != row.SafeReadsBlock {
		t.Errorf("fig1 mean %+v is not its only row %+v", m, row)
	}
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
	for _, stale := range []string{"hintm-bench-results/v0", "hintm-bench-results/v3", "hintm-bench-results/v4"} {
		bad := strings.Replace(sb.String(), BenchResultsSchema, stale, 1)
		if _, err := ReadBenchResults(strings.NewReader(bad)); err == nil ||
			!strings.Contains(err.Error(), "schema") || !strings.Contains(err.Error(), "regenerate") {
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

func baseSummary() *BenchResults {
	return &BenchResults{
		Schema: BenchResultsSchema, Scale: "large", LargeScale: "large", Seed: 1,
		WallSeconds: 10, ColdRuns: 95, Derived: 21, SimCycles: 622_647_107,
	}
}

func TestDiffBenchResultsCleanOnIdentical(t *testing.T) {
	if regs := DiffBenchResults(baseSummary(), baseSummary()); len(regs) != 0 {
		t.Errorf("identical summaries flagged: %v", regs)
	}
}

// TestDiffBenchResultsFlagsRegressions: a seed or scale mismatch makes the
// documents not comparable, and each production count must be equal.
func TestDiffBenchResultsFlagsRegressions(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*BenchResults)
		want   string
	}{
		{"seed mismatch", func(b *BenchResults) { b.Seed = 2 }, "not comparable"},
		{"scale mismatch", func(b *BenchResults) { b.Scale = "small" }, "not comparable"},
		{"large-scale mismatch", func(b *BenchResults) { b.LargeScale = "small" }, "not comparable"},
		{"cold runs", func(b *BenchResults) { b.ColdRuns = 116 }, "coldRuns 95 -> 116"},
		{"derived cells", func(b *BenchResults) { b.Derived = 0 }, "derived 21 -> 0"},
		{"simulated cycles", func(b *BenchResults) { b.SimCycles++ }, "simCycles 622647107 -> 622647108"},
	}
	for _, tc := range cases {
		cur := baseSummary()
		tc.mutate(cur)
		regs := DiffBenchResults(baseSummary(), cur)
		if len(regs) != 1 || !strings.Contains(regs[0], tc.want) {
			t.Errorf("%s: regressions = %v, want one mentioning %q", tc.name, regs, tc.want)
		}
	}
}

// TestDiffBenchResultsProductionNeedsStoreFreeRuns: a run that used a
// result store is not comparable, on either side: its recalls make the
// counts depend on what the store held.
func TestDiffBenchResultsProductionNeedsStoreFreeRuns(t *testing.T) {
	for _, store := range [][2]bool{{true, false}, {false, true}, {true, true}} {
		base, cur := baseSummary(), baseSummary()
		base.Store, cur.Store = store[0], store[1]
		regs := DiffBenchResults(base, cur)
		if len(regs) != 1 || !strings.Contains(regs[0], "not comparable") {
			t.Errorf("store %v: regressions = %v, want not comparable", store, regs)
		}
	}
}

// TestDiffBenchResultsFlagsWallTimeRegression: the wall time may grow by
// at most 50%.
func TestDiffBenchResultsFlagsWallTimeRegression(t *testing.T) {
	for _, c := range []struct {
		wall    float64
		flagged bool
	}{{2, false}, {13, false}, {15, false}, {15.1, true}, {16, true}} {
		cur := baseSummary()
		cur.WallSeconds = c.wall
		regs := DiffBenchResults(baseSummary(), cur)
		if got := len(regs) == 1 && strings.Contains(regs[0], "wallSeconds 10.00 -> "); got != c.flagged || len(regs) > 1 {
			t.Errorf("wall 10 s -> %v s: regressions = %v, want flagged = %t", c.wall, regs, c.flagged)
		}
	}
}
