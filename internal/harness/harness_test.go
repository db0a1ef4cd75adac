package harness

import (
	"context"
	"strings"
	"testing"

	"hintm/internal/workloads"
)

// quick returns a runner restricted to a small workload subset at Small
// scale, keeping the test suite fast while exercising every figure path.
func quick(filter ...string) *Runner {
	opts := QuickOptions()
	opts.Filter = filter
	return NewRunner(opts)
}

func TestFig1Rows(t *testing.T) {
	r := quick("labyrinth", "kmeans")
	rows, err := r.Fig1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	byApp := map[string]Fig1Row{}
	for _, row := range rows {
		byApp[row.App] = row
		if row.SafePages < 0 || row.SafePages > 1 {
			t.Errorf("%s: SafePages out of range: %f", row.App, row.SafePages)
		}
	}
	if byApp["kmeans"].CapacityTime > 0.02 {
		t.Errorf("kmeans should have ~no capacity time: %f", byApp["kmeans"].CapacityTime)
	}
	if byApp["labyrinth"].CapacityTime < 0.2 {
		t.Errorf("labyrinth should be capacity-bound: %f", byApp["labyrinth"].CapacityTime)
	}
	if byApp["labyrinth"].SafePages < 0.5 {
		t.Errorf("labyrinth private grids should dominate pages: %f", byApp["labyrinth"].SafePages)
	}
}

func TestFig4Rows(t *testing.T) {
	r := quick("labyrinth")
	rows, err := r.Fig4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	row := rows[0]
	if row.BaseCapacity == 0 {
		t.Fatal("labyrinth baseline should capacity-abort")
	}
	if row.CapRedSt < 0.5 {
		t.Errorf("labyrinth st capacity reduction = %f", row.CapRedSt)
	}
	if row.SpeedupSt <= 1.0 {
		t.Errorf("labyrinth st speedup = %f", row.SpeedupSt)
	}
	if row.SpeedupInf < row.SpeedupFull*0.9 {
		t.Errorf("InfCap %f should roughly bound HinTM %f", row.SpeedupInf, row.SpeedupFull)
	}
}

func TestFig5Rows(t *testing.T) {
	r := quick("labyrinth", "genome")
	rows, err := r.Fig5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]Fig5Row{}
	for _, row := range rows {
		byApp[row.App] = row
		sum := row.StaticFrac + row.DynFrac + row.UnsafeFrac
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s: fractions sum to %f", row.App, sum)
		}
	}
	if byApp["genome"].StaticFrac > 0.05 {
		t.Errorf("genome static should be ~0: %f", byApp["genome"].StaticFrac)
	}
	if byApp["labyrinth"].StaticFrac < 0.5 {
		t.Errorf("labyrinth static should dominate: %f", byApp["labyrinth"].StaticFrac)
	}
}

func TestFig6Series(t *testing.T) {
	r := quick("labyrinth")
	series, err := r.Fig6(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 {
		t.Fatalf("series = %d", len(series))
	}
	s := series[0]
	last := len(s.Points) - 1
	// CDFs must be monotone and HinTM must dominate baseline.
	for i := 1; i <= last; i++ {
		if s.Base[i] < s.Base[i-1] || s.Full[i] < s.Full[i-1] {
			t.Fatal("CDF not monotone")
		}
	}
	if s.Full[last] < s.Base[last] {
		t.Errorf("HinTM CDF at 64 blocks (%f) should be >= baseline (%f)",
			s.Full[last], s.Base[last])
	}
}

// TestFig6KeepsSubplotOrder: the filter selects Fig. 6's subplots but does
// not reorder them.
func TestFig6KeepsSubplotOrder(t *testing.T) {
	series, err := quick("vacation", "kmeans", "genome").Fig6(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range series {
		got = append(got, s.App)
	}
	if strings.Join(got, ",") != "genome,vacation" {
		t.Errorf("Fig. 6 subplots = %v, want [genome vacation]", got)
	}
}

func TestFig7And8Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("large-HTM sweeps are slow")
	}
	r := quick("labyrinth")
	rows7, err := r.Fig7(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows7) != 1 || rows7[0].App != "labyrinth" {
		t.Fatalf("fig7 rows: %+v", rows7)
	}
	rows8, err := r.Fig8(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows8) != 1 {
		t.Fatalf("fig8 rows: %+v", rows8)
	}
}

func TestRenderAllProducesEveryFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("full render is slow")
	}
	r := quick("labyrinth", "genome", "vacation", "bayes")
	var sb strings.Builder
	if err := r.RenderAll(context.Background(), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Fig 1", "Fig 4a", "Fig 4b", "Fig 5",
		"Fig 6", "Fig 7a", "Fig 7b", "Fig 8"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRenderTable1(t *testing.T) {
	var sb strings.Builder
	RenderTable1(&sb)
	for _, want := range []string{"safe load/store opcodes", "touched-page set", "2 bits per entry"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestRenderTable2(t *testing.T) {
	var sb strings.Builder
	RenderTable2(&sb)
	for _, want := range []string{
		"1-wide contexts", "64 entries", "snoopy MESI", "1024-bit PBX",
		"20-cycle walk", "6600/1450 cycles", "4, then fallback lock",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Table II missing %q:\n%s", want, sb.String())
		}
	}
}

func TestRunMemoization(t *testing.T) {
	r := quick("kmeans")
	req := Request{Workload: "kmeans", Scale: workloads.Small}
	a, err := r.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// SMT 0 and SMT 1 are the same request after normalization, so both
	// must resolve to the one cached *Result.
	b, err := r.Run(context.Background(), Request{Workload: "kmeans", Scale: workloads.Small, SMT: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical configurations should be memoized")
	}
}

// TestUnknownWorkloadErrors: every figure builder rejects an unknown
// -workloads name instead of rendering an empty figure.
func TestUnknownWorkloadErrors(t *testing.T) {
	r := quick("no-such-app")
	ctx := context.Background()
	for name, build := range map[string]func() error{
		"fig1": func() error { _, err := r.Fig1(ctx); return err },
		"fig4": func() error { _, err := r.Fig4(ctx); return err },
		"fig5": func() error { _, err := r.Fig5(ctx); return err },
		"fig6": func() error { _, err := r.Fig6(ctx); return err },
		"fig7": func() error { _, err := r.Fig7(ctx); return err },
		"fig8": func() error { _, err := r.Fig8(ctx); return err },
	} {
		if err := build(); err == nil {
			t.Errorf("%s: expected error for unknown workload", name)
		}
	}
}

func TestReductionAndSpeedup(t *testing.T) {
	if reduction(100, 40) != 0.6 {
		t.Error("reduction wrong")
	}
	if reduction(0, 10) != 0 {
		t.Error("reduction must guard zero base")
	}
	if reduction(10, 20) != 0 {
		t.Error("negative reductions clamp to zero")
	}
	if speedup(200, 100) != 2 {
		t.Error("speedup wrong")
	}
	if speedup(1, 0) != 0 {
		t.Error("speedup must guard zero")
	}
	g := geomean([]float64{1, 4})
	if g < 1.99 || g > 2.01 {
		t.Errorf("geomean = %f", g)
	}
}

// TestFigureDeterminism: identical options must reproduce identical figure
// rows — the property every comparison in the harness relies on.
func TestFigureDeterminism(t *testing.T) {
	rows1, err := quick("labyrinth").Fig4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := quick("labyrinth").Fig4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows1) != len(rows2) {
		t.Fatal("row counts differ")
	}
	for i := range rows1 {
		if rows1[i] != rows2[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, rows1[i], rows2[i])
		}
	}
}

func TestDefaultOptions(t *testing.T) {
	opts := DefaultOptions()
	if opts.Seed == 0 {
		t.Fatal("default seed must be nonzero")
	}
	if opts.Scale == opts.LargeScale {
		t.Fatal("default scales should differ")
	}
}
