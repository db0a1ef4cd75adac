package harness

import (
	"context"
	"errors"
	"strings"
	"testing"

	"hintm/internal/fault"
	"hintm/internal/sim"
	"hintm/internal/workloads"
)

// The degradation contract: a failed run — injected panic, watchdog trip,
// cycle cap — yields a typed per-request error, the rest of the grid
// completes, and the figures render with the failed cells explicitly marked.

// TestNegativePageCostIsFailedCell: a request scaling the page-mode costs
// below zero is a failed cell naming its request, not a run with negative
// page-mode cycles.
func TestNegativePageCostIsFailedCell(t *testing.T) {
	q := Request{Workload: "vacation", Scale: workloads.Small, HTM: sim.HTMP8, Hints: sim.HintDynamic, PageCostPct: -100}
	res, err := quick("vacation").Run(context.Background(), q)
	var reqErr *RequestError
	if res != nil || !errors.As(err, &reqErr) || reqErr.Req.PageCostPct != -100 {
		t.Fatalf("PageCostPct -100: (%v, %v), want a RequestError for the request", res, err)
	}
	if !strings.Contains(err.Error(), "negative VM.MinorFault") {
		t.Errorf("err = %v, want it to name the negative minor-fault cost", err)
	}
}

func TestRunRecoversInjectedPanic(t *testing.T) {
	opts := QuickOptions()
	opts.Faults = fault.Plan{PanicTx: 1}
	r := NewRunner(opts)
	res, err := r.Run(context.Background(), Request{Workload: "ssca2", Scale: workloads.Small})
	if res != nil || err == nil {
		t.Fatalf("panicking run returned (%v, %v)", res, err)
	}
	var reqErr *RequestError
	if !errors.As(err, &reqErr) {
		t.Fatalf("err %T does not wrap a RequestError", err)
	}
	if reqErr.Req.Workload != "ssca2" {
		t.Errorf("RequestError names %q, want ssca2", reqErr.Req.Workload)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err does not wrap a PanicError: %v", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack trace")
	}
	var ip fault.InjectedPanic
	if !errors.As(err, &ip) {
		t.Fatalf("err does not unwrap to the injected fault.InjectedPanic: %v", err)
	}
}

func TestRunAllReturnsPartialResults(t *testing.T) {
	// One healthy request, one that cannot even resolve its workload: the
	// grid must complete, keep the good result, and name the bad request.
	r := quick()
	good := Request{Workload: "ssca2", Scale: workloads.Small}
	bad := Request{Workload: "no-such-workload", Scale: workloads.Small}
	out, err := r.RunAll(context.Background(), []Request{good, bad})
	if err == nil {
		t.Fatal("RunAll swallowed the failure")
	}
	if out[0] == nil {
		t.Fatal("healthy request lost its result")
	}
	if out[1] != nil {
		t.Fatal("failed request has a result")
	}
	var reqErr *RequestError
	if !errors.As(err, &reqErr) || reqErr.Req.Workload != "no-such-workload" {
		t.Fatalf("joined error does not identify the failed request: %v", err)
	}
}

func TestWatchdogAndCycleCapSurfaceThroughHarness(t *testing.T) {
	opts := QuickOptions()
	opts.MaxCycles = 1_000 // far below any Small workload's runtime
	r := NewRunner(opts)
	_, err := r.Run(context.Background(), Request{Workload: "ssca2", Scale: workloads.Small})
	if !errors.Is(err, sim.ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles through the harness", err)
	}
	var reqErr *RequestError
	if !errors.As(err, &reqErr) {
		t.Fatalf("cycle-cap failure not wrapped in a RequestError: %v", err)
	}
}

func TestRenderFig4DegradesWithFailedCells(t *testing.T) {
	opts := QuickOptions()
	opts.Filter = []string{"ssca2", "kmeans"}
	opts.Faults = fault.Plan{PanicTx: 40}
	r := NewRunner(opts)

	rows, err := r.Fig4(context.Background())
	if err == nil {
		t.Fatal("Fig4 reported no error for a panicking campaign")
	}
	if len(rows) != 2 {
		t.Fatalf("Fig4 returned %d rows, want 2 (failed cells must stay visible)", len(rows))
	}
	for _, row := range rows {
		if !row.Failed {
			t.Errorf("row %s not marked failed", row.App)
		}
	}

	var sb strings.Builder
	if err := r.RenderFig4(context.Background(), &sb); err == nil {
		t.Fatal("RenderFig4 reported success for a degraded figure")
	}
	outStr := sb.String()
	if !strings.Contains(outStr, "FAILED") {
		t.Fatalf("degraded figure does not mark failed cells:\n%s", outStr)
	}
	if !strings.Contains(outStr, "Fig 4") {
		t.Fatalf("degraded figure lost its structure:\n%s", outStr)
	}
}

func TestFaultCampaignThroughHarnessIsDeterministic(t *testing.T) {
	run := func() []SweepRow {
		opts := QuickOptions()
		opts.Filter = []string{"ssca2"}
		opts.Faults = fault.Plan{SpuriousProb: 0.05}
		r := NewRunner(opts)
		rows, err := r.Fig4(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault campaign not deterministic through the harness:\n%+v\n%+v", a[i], b[i])
		}
	}
}
