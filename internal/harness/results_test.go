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

func sweep(sp float64) *SweepSection {
	return &SweepSection{
		Rows:    make([]SweepRow, 5),
		Mean:    SweepRow{CapRedFull: 0.8},
		Geomean: SweepRow{SpeedupFull: sp, SpeedupInf: sp + 0.2},
	}
}

func baseSummary() *BenchResults {
	return &BenchResults{
		Schema: BenchResultsSchema, Scale: "small", LargeScale: "small", Seed: 1,
		ColdRuns: 80, Derived: 36, SimCycles: 16_448_523,
		Fig1: &Fig1Section{Rows: make([]Fig1Row, 5)},
		Fig4: sweep(1.5), Fig7: sweep(1.4),
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
		{"speedup drop", func(b *BenchResults) { b.Fig4.Geomean.SpeedupFull = 1.2 }, "geomeanSpeedup"},
		{"failed rows", func(b *BenchResults) { b.Fig7.Failed = 2 }, "failed rows"},
		{"row count", func(b *BenchResults) { b.Fig4.Rows = b.Fig4.Rows[:3] }, "grid changed"},
		{"missing figure", func(b *BenchResults) { b.Fig7 = nil }, "missing"},
		{"new error", func(b *BenchResults) { b.Fig4.Error = "boom" }, "fig4: new error: boom"},
		{"seed mismatch", func(b *BenchResults) { b.Seed = 2 }, "seed mismatch"},
		{"cold runs", func(b *BenchResults) { b.ColdRuns = 116 }, "coldRuns 80 -> 116"},
		{"derived cells", func(b *BenchResults) { b.Derived = 0 }, "derived 36 -> 0"},
		{"simulated cycles", func(b *BenchResults) { b.SimCycles++ }, "simCycles 16448523 -> 16448524"},
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
	base.Fig1.Mean.CapacityTime = 0.20
	for _, v := range []float64{0.30, 0.10} {
		cur := baseSummary()
		cur.Fig1.Mean.CapacityTime = v
		regs := DiffBenchResults(base, cur, DiffOptions{Tolerance: 0.05})
		if !strings.Contains(strings.Join(regs, "\n"), "drifted") {
			t.Errorf("capacity-time %v -> %v not flagged: %v", 0.20, v, regs)
		}
	}
}

func TestDiffBenchResultsRespectsTolerance(t *testing.T) {
	cur := baseSummary()
	cur.Fig4.Geomean.SpeedupFull = 1.5 * 0.97 // a 3% dip
	if regs := DiffBenchResults(baseSummary(), cur, DiffOptions{Tolerance: 0.05}); len(regs) != 0 {
		t.Errorf("3%% dip flagged at 5%% tolerance: %v", regs)
	}
	if regs := DiffBenchResults(baseSummary(), cur, DiffOptions{Tolerance: 0.01}); len(regs) == 0 {
		t.Error("3% dip not flagged at 1% tolerance")
	}
	// An improvement is never a regression.
	cur.Fig4.Geomean.SpeedupFull = 2.0
	if regs := DiffBenchResults(baseSummary(), cur, DiffOptions{Tolerance: 0.01}); len(regs) != 0 {
		t.Errorf("improvement flagged: %v", regs)
	}
}

// TestDiffBenchResultsProductionNeedsStoreFreeRuns: production counts are
// gated exactly, but only when neither run used a result store, whose
// recalls make the counts depend on what the store held.
func TestDiffBenchResultsProductionNeedsStoreFreeRuns(t *testing.T) {
	cur := baseSummary()
	cur.ColdRuns, cur.SimCycles = 0, 0
	if regs := DiffBenchResults(baseSummary(), cur, DiffOptions{Tolerance: 0.05}); len(regs) != 2 {
		t.Errorf("store-free production change: regressions = %v, want coldRuns and simCycles", regs)
	}
	cur.Store = true
	if regs := DiffBenchResults(baseSummary(), cur, DiffOptions{Tolerance: 0.05}); len(regs) != 0 {
		t.Errorf("store-backed run gated on production counts: %v", regs)
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
