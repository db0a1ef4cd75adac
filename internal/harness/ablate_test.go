package harness

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"hintm/internal/sim"
)

// TestAblationsRunAtQuickScale drives every ablation end to end at Small
// scale and sanity-checks the rendered tables.
func TestAblationsRunAtQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations sweep many configurations")
	}
	r := NewRunner(QuickOptions())
	cases := []struct {
		name string
		run  func(w *strings.Builder) error
		want string
	}{
		{"buffer", func(w *strings.Builder) error { return r.AblateBufferSize(context.Background(), w, "labyrinth") }, "P8 buffer size"},
		{"signature", func(w *strings.Builder) error { return r.AblateSignatureSize(context.Background(), w, "yada") }, "signature size"},
		{"shootdown", func(w *strings.Builder) error { return r.AblateShootdownCost(context.Background(), w, "vacation") }, "TLB-shootdown cost"},
		{"retries", func(w *strings.Builder) error { return r.AblateRetryPolicy(context.Background(), w, "tpcc-p") }, "conflict retries"},
		{"tlb", func(w *strings.Builder) error { return r.AblateTLBSize(context.Background(), w, "vacation") }, "TLB entries"},
		{"versioning", func(w *strings.Builder) error { return r.AblateVersioning(context.Background(), w, "kmeans") }, "versioning discipline"},
		{"htm-vs-stm", func(w *strings.Builder) error { return r.AblateHTMvsSTM(context.Background(), w, "bayes") }, "HTM vs STM"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var sb strings.Builder
			if err := c.run(&sb); err != nil {
				t.Fatal(err)
			}
			out := sb.String()
			if !strings.Contains(out, c.want) {
				t.Fatalf("output missing %q:\n%s", c.want, out)
			}
			if strings.Count(out, "\n") < 6 {
				t.Fatalf("suspiciously short table:\n%s", out)
			}
		})
	}
}

func TestAblateUnknownWorkload(t *testing.T) {
	r := NewRunner(QuickOptions())
	var sb strings.Builder
	if err := r.AblateBufferSize(context.Background(), &sb, "ghost"); err == nil {
		t.Fatal("unknown workload accepted")
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

func TestRenderExtras(t *testing.T) {
	var sb strings.Builder
	if err := NewRunner(QuickOptions()).RenderExtras(context.Background(), &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"intset-ll", "intset-hash", "honest negative"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("extras output missing %q", want)
		}
	}
}

func TestExportAllProducesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("export runs every figure")
	}
	var sb strings.Builder
	r := quick("labyrinth")
	if err := r.ExportAll(context.Background(), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"fig1"`, `"fig4"`, `"fig6"`, `"SpeedupFull"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("export missing %q", want)
		}
	}

	// Fig. 1 rows carry the profiled run's whole sharing report, not just
	// the plotted fractions.
	var ex Export
	if err := json.Unmarshal([]byte(out), &ex); err != nil {
		t.Fatal(err)
	}
	if len(ex.Fig1) != 1 || ex.Fig1[0].Failed {
		t.Fatalf("fig1 = %+v, want one labyrinth row", ex.Fig1)
	}
	prof := r.report(req("labyrinth", r.opts.Scale, sim.HTMInfCap, sim.HintNone))
	if prof == nil {
		t.Fatal("no stored profile report for the labyrinth InfCap run")
	}
	row := ex.Fig1[0]
	if row.SafeBlocks != prof.SafeBlockFrac || row.Blocks != prof.Blocks ||
		row.Pages != prof.Pages || row.TxAccesses != prof.TxAccesses {
		t.Errorf("fig1 row %+v disagrees with profile report %+v", row, *prof)
	}
	if row.Blocks == 0 || row.Pages == 0 || row.TxAccesses == 0 {
		t.Errorf("fig1 row totals are zero: %+v", row)
	}
}

func TestSeedSweepAggregates(t *testing.T) {
	opts := QuickOptions()
	opts.Filter = []string{"labyrinth"}
	rows, err := SeedSweep(context.Background(), opts, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Seeds != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	r := rows[0]
	if r.SpeedupMin > r.SpeedupMean || r.SpeedupMean > r.SpeedupMax {
		t.Fatalf("aggregate ordering wrong: %+v", r)
	}
	if r.SpeedupMean <= 1 {
		t.Fatalf("labyrinth should speed up on every seed: %+v", r)
	}
}
