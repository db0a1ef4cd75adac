package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"hintm/internal/fault"
	"hintm/internal/sim"
	"hintm/internal/store"
	"hintm/internal/workloads"
)

// fig4Grid is a small but non-trivial request grid: every (HTM, hint)
// point Fig. 4 needs for one workload.
func fig4Grid() []Request {
	var reqs []Request
	for _, kind := range []sim.HTMKind{sim.HTMP8, sim.HTMInfCap} {
		for _, hints := range []sim.HintMode{sim.HintNone, sim.HintStatic, sim.HintDynamic, sim.HintFull} {
			reqs = append(reqs, Request{
				Workload: "labyrinth", Scale: workloads.Small, HTM: kind, Hints: hints,
			})
		}
	}
	return reqs
}

// TestParallelMatchesSerial is the scheduler's central guarantee: a Runner
// with 8 workers must produce byte-identical figure output and deeply equal
// raw results to a Runner with 1 worker.
func TestParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	reqs := fig4Grid()

	runWith := func(workers int) ([]*sim.Result, string) {
		opts := QuickOptions()
		opts.Filter = []string{"labyrinth"}
		opts.Workers = workers
		r := NewRunner(opts)
		res, err := r.RunAll(ctx, reqs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var sb strings.Builder
		if err := r.RenderFig4(ctx, &sb); err != nil {
			t.Fatalf("workers=%d render: %v", workers, err)
		}
		return res, sb.String()
	}

	serialRes, serialOut := runWith(1)
	parallelRes, parallelOut := runWith(8)

	if serialOut != parallelOut {
		t.Errorf("rendered Fig 4 differs between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serialOut, parallelOut)
	}
	if len(serialRes) != len(parallelRes) {
		t.Fatalf("result counts differ: %d vs %d", len(serialRes), len(parallelRes))
	}
	for i := range serialRes {
		if !reflect.DeepEqual(serialRes[i], parallelRes[i]) {
			t.Errorf("request %v: results differ between 1 and 8 workers", reqs[i])
		}
	}
}

// TestConcurrentRunnersShareFlights hammers one Runner from many goroutines
// (run under -race by the Makefile's race target): every caller asking for
// the same Request must get the same cached *sim.Result pointer back.
func TestConcurrentRunnersShareFlights(t *testing.T) {
	opts := QuickOptions()
	opts.Workers = 4
	r := NewRunner(opts)
	reqs := fig4Grid()

	const callers = 4
	got := make([][]*sim.Result, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res, err := r.RunAll(context.Background(), reqs)
			if err != nil {
				t.Error(err)
				return
			}
			got[c] = res
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for c := 1; c < callers; c++ {
		for i := range reqs {
			if got[c][i] != got[0][i] {
				t.Fatalf("caller %d request %v: distinct *Result — single-flight broken", c, reqs[i])
			}
		}
	}
}

// TestRunAllAlignsDuplicates: duplicate entries in one grid must resolve to
// the one shared result, index-aligned with the input.
func TestRunAllAlignsDuplicates(t *testing.T) {
	r := NewRunner(QuickOptions())
	req := Request{Workload: "kmeans", Scale: workloads.Small}
	res, err := r.RunAll(context.Background(), []Request{req, req, req})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || res[0] == nil || res[0] != res[1] || res[1] != res[2] {
		t.Fatalf("duplicates not deduplicated: %v", res)
	}
}

// TestRunCancellation: a cancelled context must abort promptly with the
// context's error, and must not poison the cache — a later call with a live
// context re-runs and succeeds.
func TestRunCancellation(t *testing.T) {
	r := NewRunner(QuickOptions())
	req := Request{Workload: "labyrinth", Scale: workloads.Small}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Run(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	res, err := r.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
	if res == nil || res.Cycles == 0 {
		t.Fatalf("retry produced empty result: %+v", res)
	}
}

// TestRunAllCancellation: cancelling mid-grid surfaces the context error
// from RunAll and from figure entry points built on it.
func TestRunAllCancellation(t *testing.T) {
	opts := QuickOptions()
	opts.Filter = []string{"labyrinth"}
	r := NewRunner(opts)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunAll(ctx, fig4Grid()); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAll err = %v, want context.Canceled", err)
	}
	if _, err := r.Fig4(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig4 err = %v, want context.Canceled", err)
	}
}

// TestRunUnknownWorkload: bad requests fail without touching the pool.
func TestRunUnknownWorkload(t *testing.T) {
	r := NewRunner(QuickOptions())
	if _, err := r.Run(context.Background(), Request{Workload: "ghost"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestRequestNormalization: SMT 0 and SMT 1 are one cache key, and String
// is stable for log/error messages.
func TestRequestNormalization(t *testing.T) {
	a := Request{Workload: "x", Scale: workloads.Small}.normalize()
	b := Request{Workload: "x", Scale: workloads.Small, SMT: 1}.normalize()
	if a != b {
		t.Fatalf("normalize: %+v != %+v", a, b)
	}
	if s := a.String(); !strings.Contains(s, "x/") || !strings.Contains(s, "smt1") {
		t.Fatalf("String = %q", s)
	}
}

// TestZeroSeedIsRunnerSeed: a request that leaves Seed and Faults zero
// resolves to the runner's options before the memo lookup, so it shares
// one flight, one store key and one result with the request that spells
// them out; another seed is another run.
func TestZeroSeedIsRunnerSeed(t *testing.T) {
	ctx := context.Background()
	opts := QuickOptions()
	opts.Faults = fault.Plan{SpuriousProb: 0.01}
	r := NewRunner(opts)
	implicit := Request{Workload: "kmeans", Scale: workloads.Small}
	explicit := implicit
	explicit.Seed, explicit.Faults = opts.Seed, opts.Faults
	if r.StoreKey(implicit) != r.StoreKey(explicit) {
		t.Error("zero and explicit runner seed have different store keys")
	}
	res, err := r.RunAll(ctx, []Request{implicit, explicit})
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); res[0] != res[1] || st.SimRuns != 1 || st.Derived != 0 {
		t.Fatalf("zero and explicit runner seed: %+v, shared result %v; want 1 sim, true", st, res[0] == res[1])
	}
	other := explicit
	other.Seed = opts.Seed + 1
	if res2, err := r.Run(ctx, other); err != nil || res2 == res[0] || r.Stats().SimRuns != 2 || r.Stats().Derived != 0 {
		t.Fatalf("another seed: err %v, shared result %v, %+v; want a second run", err, res2 == res[0], r.Stats())
	}
}

// TestProfiledCellRespectsContext: the profiled cell (Fig. 1's InfCap run,
// which carries the sharing profiler) honours cancellation like every other
// run, and a cancelled attempt leaves no report behind; a live retry
// produces one.
func TestProfiledCellRespectsContext(t *testing.T) {
	r := NewRunner(QuickOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := req("kmeans", workloads.Small, sim.HTMInfCap, sim.HintNone)
	if _, err := r.Run(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep := r.report(q); rep != nil {
		t.Fatalf("cancelled run left a report: %+v", rep)
	}
	if _, err := r.Run(context.Background(), q); err != nil {
		t.Fatalf("live profiled run: %v", err)
	}
	if rep := r.report(q); rep == nil || rep.Pages == 0 {
		t.Fatalf("live profiled run: report=%+v", rep)
	}
}

// twinGrid is the grid TestPrefixTwinGrid runs at two worker counts: every
// HTM kind, every hint mode, and a P8S signature sweep, over two workloads
// and both SMT settings.
func twinGrid() []Request {
	var reqs []Request
	for _, wl := range []string{"labyrinth", "vacation"} {
		for _, smt := range []int{1, 2} {
			for _, kind := range []sim.HTMKind{sim.HTMP8, sim.HTMP8S, sim.HTML1TM, sim.HTMInfCap, sim.HTMSTM} {
				for _, hints := range []sim.HintMode{sim.HintNone, sim.HintStatic, sim.HintDynamic, sim.HintFull} {
					reqs = append(reqs, Request{Workload: wl, Scale: workloads.Small, HTM: kind, Hints: hints, SMT: smt})
				}
			}
			for _, bits := range []uint64{256, 4096} {
				reqs = append(reqs, Request{Workload: wl, Scale: workloads.Small, HTM: sim.HTMP8S, Hints: sim.HintFull, SMT: smt, SigBits: bits})
			}
		}
	}
	return reqs
}

// storeLines canonicalizes a store's full contents as
// "<key> <sha256(result)> <request preimage>" lines.
func storeLines(t *testing.T, st *store.Store) []string {
	t.Helper()
	entries := st.List()
	lines := make([]string, 0, len(entries))
	for _, ie := range entries {
		e, _, err := st.Get(ie.Key)
		if err != nil || e == nil {
			t.Fatalf("store entry %s unreadable: %v", ie.Key, err)
		}
		res := sha256.Sum256(e.Result)
		lines = append(lines, fmt.Sprintf("%s %s %s", e.Key, hex.EncodeToString(res[:]), string(e.Request)))
	}
	sort.Strings(lines)
	return lines
}

// TestPrefixTwinGrid is the grid-level byte-identity pin for the parallel
// scheduler: the twin grid run with one worker and with two must persist
// exactly the same store keys and result payloads, simulating or deriving
// each distinct request once and sharing no warm-up prefix. Run under -race by the
// Makefile's race target.
func TestPrefixTwinGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full twin grid; skipped in -short mode")
	}
	reqs := twinGrid()
	runGrid := func(workers int) []string {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opts := QuickOptions()
		opts.Filter = []string{"labyrinth", "vacation"}
		opts.Store = st
		opts.Workers = workers
		r := NewRunner(opts)
		if _, err := r.RunAll(context.Background(), reqs); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st := r.Stats(); st.SimRuns != 60 || st.Derived != 28 || st.PrefixRuns != 0 || st.ForkedRuns != 0 {
			t.Fatalf("workers=%d: %+v, want 60 cold sims and 28 derived cells of %d", workers, st, len(reqs))
		}
		return storeLines(t, st)
	}
	serial, parallel := runGrid(1), runGrid(2)
	if len(parallel) != len(serial) {
		t.Fatalf("store sizes differ: 2 workers %d, 1 worker %d", len(parallel), len(serial))
	}
	for i := range serial {
		if parallel[i] != serial[i] {
			t.Errorf("store line %d differs:\n  1 worker:  %s\n  2 workers: %s", i, serial[i], parallel[i])
		}
	}
}

// TestProfiledMatchesUnprofiled pins the premise that lets Fig. 1's
// sharing report ride the grid's own InfCap cell: for every Fig. 1 app, the
// InfCap cell run as Fig. 1 submits it (paired with its P8 cell in one
// RunAll) reports exactly what a lone Run reports, and the profiler, a
// passive observer, leaves the result JSON byte-identical to that of a
// machine built from the same config without one.
func TestProfiledMatchesUnprofiled(t *testing.T) {
	if testing.Short() {
		t.Skip("every Fig. 1 app three ways; skipped in -short mode")
	}
	ctx := context.Background()
	lone := NewRunner(QuickOptions())
	paired := NewRunner(QuickOptions())
	for _, spec := range workloads.All() {
		p8 := req(spec.Name, workloads.Small, sim.HTMP8, sim.HintNone)
		inf := req(spec.Name, workloads.Small, sim.HTMInfCap, sim.HintNone)

		before := paired.Stats()
		out, err := paired.RunAll(ctx, []Request{p8, inf})
		if err != nil {
			t.Fatal(err)
		}
		if d := paired.Stats().Sub(before); d.SimRuns != 2 || d.Derived != 0 || d.ForkedRuns != 0 {
			t.Fatalf("%s: Fig. 1 pair: %+v, want 2 cold sims", spec.Name, d)
		}
		loneRes, err := lone.Run(ctx, inf)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := lone.module(ctx, spec, spec.DefaultThreads, workloads.Small)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.New(lone.ConfigFor(spec, inf), mod)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := m.Run(ctx)
		m.Release()
		if err != nil {
			t.Fatal(err)
		}

		pairRep, loneRep := paired.report(inf), lone.report(inf)
		if pairRep == nil || loneRep == nil {
			t.Fatalf("%s: missing report: paired %v, lone %v", spec.Name, pairRep, loneRep)
		}
		if *pairRep != *loneRep {
			t.Errorf("%s: paired report differs from lone:\npaired: %+v\nlone:   %+v", spec.Name, *pairRep, *loneRep)
		}
		want, _ := json.Marshal(plain)
		for name, res := range map[string]*sim.Result{"paired": out[1], "lone": loneRes} {
			if got, _ := json.Marshal(res); !bytes.Equal(got, want) {
				t.Errorf("%s: %s profiled result JSON differs from the unprofiled run's", spec.Name, name)
			}
		}
	}
}

// A lone Run simulates exactly once and plans no warm-up: the prefix
// counters RunStats still carries stay zero.
func TestSingleRunNeverSharesPrefix(t *testing.T) {
	r := NewRunner(QuickOptions())
	req := Request{Workload: "labyrinth", Scale: workloads.Small, HTM: sim.HTMP8, Hints: sim.HintNone}
	if _, err := r.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.PrefixRuns != 0 || st.ForkedRuns != 0 {
		t.Fatalf("lone Run shared a prefix: %+v", st)
	}
	if st.SimRuns != 1 || st.Derived != 0 || st.ColdRuns() != 1 {
		t.Fatalf("lone Run accounting: %+v", st)
	}
}

// Re-submitting a completed grid must do no new work: every request is
// already satisfied, so nothing is simulated, derived or planned. Of the
// grid's 8 requests, 3 are derived: labyrinth's hinted transactions fit the
// P8 buffer, so each hinted InfCap cell repeats its P8 twin's run.
func TestPrefixPlanningSkipsSatisfiedRequests(t *testing.T) {
	r := NewRunner(QuickOptions())
	ctx := context.Background()
	grid := fig4Grid()
	if _, err := r.RunAll(ctx, grid); err != nil {
		t.Fatal(err)
	}
	first := r.Stats()
	if first.SimRuns != 5 || first.Derived != 3 {
		t.Fatalf("first submission: %+v, want 5 sims and 3 derived cells", first)
	}
	if _, err := r.RunAll(ctx, grid); err != nil {
		t.Fatal(err)
	}
	if second := r.Stats(); second != first {
		t.Fatalf("re-submitted grid did new work: %+v -> %+v", first, second)
	}
}

// Every run path is cold: a shareable grid through RunAll, and a figure
// built on it, leave the prefix counters at zero and ColdRuns equal to
// SimRuns.
func TestPrefixSharingDisabledPaths(t *testing.T) {
	ctx := context.Background()
	r := NewRunner(QuickOptions())
	if _, err := r.RunAll(ctx, fig4Grid()); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.PrefixRuns != 0 || st.ForkedRuns != 0 || st.ForkSeconds != 0 || st.SharedCycles != 0 {
		t.Fatalf("grid runner shared: %+v", st)
	}
	if st.SimRuns != 5 || st.Derived != 3 || st.ColdRuns() != st.SimRuns {
		t.Fatalf("cold grid: %+v, want 5 cold sims and 3 derived cells", st)
	}

	fig := quick("labyrinth")
	if _, err := fig.Fig1(ctx); err != nil {
		t.Fatal(err)
	}
	if st := fig.Stats(); st.PrefixRuns != 0 || st.ForkedRuns != 0 || st.ColdRuns() != st.SimRuns {
		t.Fatalf("Fig. 1 runner shared: %+v", st)
	}
}

// TestFig1SimulatesOnlyItsCells: a cold Fig. 1 runs exactly its P8 and
// InfCap cells; the sharing reports cost no separate run. kmeans's
// transactions fit the P8 buffer, so its P8 cell is derived from the
// profiled InfCap run.
func TestFig1SimulatesOnlyItsCells(t *testing.T) {
	r := quick("labyrinth", "kmeans")
	if _, err := r.Fig1(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.SimRuns != 3 || st.Derived != 1 {
		t.Fatalf("Fig. 1 over 2 apps: %+v, want 3 simulations and 1 derived cell", st)
	}
}

// TestConfigForAppliesOverrides: each Request override reaches the machine
// configuration, and a zero override leaves the Table II value.
func TestConfigForAppliesOverrides(t *testing.T) {
	r := NewRunner(QuickOptions())
	spec, err := workloads.ByName("vacation")
	if err != nil {
		t.Fatal(err)
	}
	q := Request{Workload: "vacation", Scale: workloads.Small}
	def, got := sim.DefaultConfig(), r.ConfigFor(spec, q)
	if got.P8Entries != def.P8Entries || got.CapacityRetries != def.CapacityRetries || got.VM != def.VM {
		t.Fatalf("zero overrides moved the config: %+v", got)
	}
	if got.Seed != r.opts.Seed || got.Faults != r.opts.Faults {
		t.Errorf("zero Seed/Faults gave %d/%+v, want the runner's %d/%+v", got.Seed, got.Faults, r.opts.Seed, r.opts.Faults)
	}
	q.P8Entries, q.CapacityRetries, q.PageCostPct = 16, 2, 50
	q.Seed, q.Faults = 7, fault.Plan{SpuriousProb: 0.5}
	got = r.ConfigFor(spec, q)
	if got.Seed != 7 || got.Faults != q.Faults {
		t.Errorf("Seed/Faults = %d/%+v, want 7/%+v", got.Seed, got.Faults, q.Faults)
	}
	if got.P8Entries != 16 || got.CapacityRetries != 2 {
		t.Errorf("P8Entries/CapacityRetries = %d/%d, want 16/2", got.P8Entries, got.CapacityRetries)
	}
	if got.VM.MinorFault != def.VM.MinorFault/2 || got.VM.ShootdownInitiator != def.VM.ShootdownInitiator/2 ||
		got.VM.ShootdownSlave != def.VM.ShootdownSlave/2 || got.VM.TLBMiss != def.VM.TLBMiss {
		t.Errorf("PageCostPct 50: costs %+v, want the page-mode costs of %+v halved", got.VM, def.VM)
	}
}
