package harness

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"hintm/internal/sim"
)

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
