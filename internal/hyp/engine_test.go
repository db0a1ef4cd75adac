package hyp

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"hintm/internal/harness"
	"hintm/internal/sim"
	"hintm/internal/store"
	"hintm/internal/workloads"
)

// engineSpec is a real two-level, two-seed hypothesis over the fastest
// workload, used to exercise the engine against the actual simulator.
func engineSpec() *Spec {
	s := validSpec()
	s.Judge = func(e *Evaluation) Outcome {
		return Outcome{
			Verdict: Supported,
			Reason: fmt.Sprintf("control mean %.0f cycles, treatment mean %.0f cycles",
				e.Mean(0, 0), e.Mean(1, 0)),
		}
	}
	return s
}

func smallEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := harness.QuickOptions()
	opts.Store = st
	return &Engine{Opts: opts}
}

func TestEngineGridShapeAndDeterminism(t *testing.T) {
	dir := t.TempDir()
	e1, err := smallEngine(t, dir).Run(context.Background(), engineSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(e1.Cells) != 2 || len(e1.Cells[0]) != 2 {
		t.Fatalf("grid shape: %d levels × %d seeds", len(e1.Cells), len(e1.Cells[0]))
	}
	// Cold grid: every distinct (level, seed) cell simulates exactly once;
	// an InfCap baseline cell is Fig. 1's profiled cell, which is never
	// derived.
	if e1.SimRuns != 4 || e1.Derived != 0 {
		t.Errorf("cold SimRuns = %d, Derived = %d, want 4 and 0", e1.SimRuns, e1.Derived)
	}
	for l, cells := range e1.Cells {
		for s, c := range cells {
			if c.Result == nil || len(c.Values) != 1 || c.Values[0] <= 0 {
				t.Fatalf("cell[%d][%d] unmeasured: %+v", l, s, c)
			}
			if c.Seed != engineSpec().Seeds[s] {
				t.Errorf("cell[%d][%d] seed %d", l, s, c.Seed)
			}
		}
	}
	// The treatment level's Apply must have reached the request.
	if e1.Cells[1][0].Request.HTM != sim.HTMInfCap {
		t.Error("level Apply did not reach the cell request")
	}
	if e1.Cells[0][0].Request.Scale != workloads.Small {
		t.Error("engine scale did not reach the cell request")
	}
	if e1.Outcome.Verdict != Supported || e1.Outcome.Reason == "" {
		t.Errorf("outcome: %+v", e1.Outcome)
	}

	// Warm rerun through the shared store: byte-identical findings, zero
	// simulator invocations — the property TestFindings' warm pass asserts
	// over the whole catalogue.
	e2, err := smallEngine(t, dir).Run(context.Background(), engineSpec())
	if err != nil {
		t.Fatal(err)
	}
	if e2.SimRuns != 0 || e2.Derived != 0 {
		t.Errorf("warm SimRuns = %d, Derived = %d, want 0 and 0", e2.SimRuns, e2.Derived)
	}
	if !bytes.Equal(Render(e1), Render(e2)) {
		t.Error("warm rerun rendered different findings bytes")
	}
}

// TestEngineSharesCellsAcrossSpecs: two specs with the same control cell,
// run through one engine with no store, simulate that cell once. The second
// spec's P8S cell repeats that control run: ssca2's transactions fit the
// P8 buffer, so a P8S buffer of the same size never spills.
func TestEngineSharesCellsAcrossSpecs(t *testing.T) {
	ctx := context.Background()
	g := &Engine{Opts: harness.QuickOptions()}
	a := engineSpec()
	b := engineSpec()
	b.Name = "test-spec-p8s"
	b.Levels[1] = Level{Name: "P8S", Apply: func(q *harness.Request) { q.HTM = sim.HTMP8S }}
	b.Seeds = b.Seeds[:1]
	ea, err := g.Run(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := g.Run(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if ea.SimRuns != 4 || ea.Derived != 0 || eb.SimRuns != 0 || eb.Derived != 1 {
		t.Errorf("SimRuns = %d then %d, Derived = %d then %d, want 4 then 0 and 0 then 1 (the shared control cell runs once)",
			ea.SimRuns, eb.SimRuns, ea.Derived, eb.Derived)
	}
	if eb.Cells[0][0].Result != ea.Cells[0][0].Result {
		t.Error("the shared control cell was not one result")
	}
}

// TestEngineErrorNamesCell: a failed cell fails the evaluation, and the
// error names the spec, the level and the seed.
func TestEngineErrorNamesCell(t *testing.T) {
	s := engineSpec()
	s.Levels[1].Apply = func(q *harness.Request) { q.Workload = "no-such-workload" }
	_, err := (&Engine{Opts: harness.QuickOptions()}).Run(context.Background(), s)
	if err == nil || !strings.Contains(err.Error(), "test-spec: level treatment seed 1: ") {
		t.Errorf("err = %v, want it to name level treatment seed 1", err)
	}
}

func TestEngineWorkerCountInvariance(t *testing.T) {
	run := func(workers int) []byte {
		opts := harness.QuickOptions()
		opts.Workers = workers
		ev, err := (&Engine{Opts: opts}).Run(context.Background(), engineSpec())
		if err != nil {
			t.Fatal(err)
		}
		return Render(ev)
	}
	if !bytes.Equal(run(1), run(4)) {
		t.Error("findings depend on worker count")
	}
}

func TestEngineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (&Engine{Opts: harness.QuickOptions()}).Run(ctx, engineSpec()); err == nil {
		t.Error("cancelled grid returned no error")
	}
}

func TestEngineRejectsBadSpecAndWorkload(t *testing.T) {
	bad := engineSpec()
	bad.Seeds = nil
	if _, err := (&Engine{Opts: harness.QuickOptions()}).Run(context.Background(), bad); err == nil {
		t.Error("invalid spec accepted")
	}
	ghost := engineSpec()
	ghost.Base.Workload = "no-such-workload"
	if _, err := (&Engine{Opts: harness.QuickOptions()}).Run(context.Background(), ghost); err == nil {
		t.Error("unknown workload accepted")
	}
}
