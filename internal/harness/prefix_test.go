package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"hintm/internal/sim"
	"hintm/internal/store"
	"hintm/internal/workloads"
)

// twinGrid is the grid TestPrefixTwinGrid runs under both scheduling modes:
// every HTM kind, every hint mode, and a P8S signature sweep, over two
// workloads and both SMT settings — a superset of the sharing shapes the
// figure grids produce.
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

// TestPrefixTwinGrid is the grid-level byte-identity pin for warm-up prefix
// sharing: the same grid run cold (sharing off) and shared (sharing on)
// must persist exactly the same store keys and result payloads, at any
// worker count. Run under -race by the Makefile's race target.
func TestPrefixTwinGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full twin grid; skipped in -short mode")
	}
	reqs := twinGrid()
	ctx := context.Background()

	runGrid := func(noShare bool, workers int) ([]string, RunStats) {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opts := QuickOptions()
		opts.Filter = []string{"labyrinth", "vacation"}
		opts.Store = st
		opts.Workers = workers
		opts.NoPrefixShare = noShare
		r := NewRunner(opts)
		if _, err := r.RunAll(ctx, reqs); err != nil {
			t.Fatalf("noShare=%v workers=%d: %v", noShare, workers, err)
		}
		return storeLines(t, st), r.Stats()
	}

	coldLines, coldStats := runGrid(true, 4)
	if coldStats.ForkedRuns != 0 || coldStats.PrefixRuns != 0 {
		t.Fatalf("sharing-off runner still shared: %+v", coldStats)
	}
	if coldStats.SimRuns != uint64(len(reqs)) {
		t.Fatalf("cold grid ran %d sims, want %d", coldStats.SimRuns, len(reqs))
	}

	for _, workers := range []int{1, 3, 8} {
		sharedLines, sharedStats := runGrid(false, workers)
		if sharedStats.ForkedRuns == 0 {
			t.Fatalf("workers=%d: sharing-on runner forked nothing: %+v", workers, sharedStats)
		}
		if sharedStats.SimRuns != uint64(len(reqs)) {
			t.Errorf("workers=%d: shared grid produced %d results, want %d", workers, sharedStats.SimRuns, len(reqs))
		}
		// Every sibling group (≥ 2 members by construction) shares one
		// warm-up; the grid has 2 workloads × 2 SMT × 2 dyn-bit settings.
		if sharedStats.PrefixRuns != 8 {
			t.Errorf("workers=%d: %d prefix warm-ups, want 8", workers, sharedStats.PrefixRuns)
		}
		if len(sharedLines) != len(coldLines) {
			t.Fatalf("workers=%d: store sizes differ: shared %d, cold %d", workers, len(sharedLines), len(coldLines))
		}
		for i := range coldLines {
			if sharedLines[i] != coldLines[i] {
				t.Errorf("workers=%d: store line %d differs:\n  cold:   %s\n  shared: %s",
					workers, i, coldLines[i], sharedLines[i])
			}
		}
	}
}

// The prefix key must mask exactly the parameters that cannot influence the
// warm-up (HTM kind, static hints, signature sizing) and keep everything
// that can (workload, scale, SMT, the dynamic-hint bit, seed, run limits).
func TestPrefixKeyMasking(t *testing.T) {
	r := NewRunner(QuickOptions())
	base := Request{Workload: "labyrinth", Scale: workloads.Small, HTM: sim.HTMP8, Hints: sim.HintNone, SMT: 1}
	key := r.prefixKey(base)

	same := map[string]Request{
		"htm kind":     {Workload: "labyrinth", Scale: workloads.Small, HTM: sim.HTMInfCap, Hints: sim.HintNone, SMT: 1},
		"static hints": {Workload: "labyrinth", Scale: workloads.Small, HTM: sim.HTMP8, Hints: sim.HintStatic, SMT: 1},
		"sig bits":     {Workload: "labyrinth", Scale: workloads.Small, HTM: sim.HTMP8S, Hints: sim.HintNone, SMT: 1, SigBits: 256},
		"zero smt":     {Workload: "labyrinth", Scale: workloads.Small, HTM: sim.HTMP8, Hints: sim.HintNone, SMT: 0},
	}
	for name, req := range same {
		if got := r.prefixKey(req); got != key {
			t.Errorf("%s should be masked: key %s != %s", name, got, key)
		}
	}

	diff := map[string]Request{
		"workload": {Workload: "vacation", Scale: workloads.Small, HTM: sim.HTMP8, Hints: sim.HintNone, SMT: 1},
		"scale":    {Workload: "labyrinth", Scale: workloads.Medium, HTM: sim.HTMP8, Hints: sim.HintNone, SMT: 1},
		"smt":      {Workload: "labyrinth", Scale: workloads.Small, HTM: sim.HTMP8, Hints: sim.HintNone, SMT: 2},
		"dyn bit":  {Workload: "labyrinth", Scale: workloads.Small, HTM: sim.HTMP8, Hints: sim.HintDynamic, SMT: 1},
	}
	for name, req := range diff {
		if got := r.prefixKey(req); got == key {
			t.Errorf("%s must split the group but key matched: %s", name, got)
		}
	}

	// Dynamic and full hints agree on the one bit the warm-up observes.
	dyn := Request{Workload: "labyrinth", Scale: workloads.Small, HTM: sim.HTMP8, Hints: sim.HintDynamic, SMT: 1}
	full := Request{Workload: "labyrinth", Scale: workloads.Small, HTM: sim.HTMInfCap, Hints: sim.HintFull, SMT: 1}
	if r.prefixKey(dyn) != r.prefixKey(full) {
		t.Error("dyn and full hint modes should share a prefix group")
	}

	// A different runner seed must change every key.
	opts := QuickOptions()
	opts.Seed = 99
	if NewRunner(opts).prefixKey(base) == key {
		t.Error("seed not part of the prefix key")
	}
}

// Single Run calls (no grid context) must never plan or pay for a warm-up:
// sharing only activates when RunAll sees ≥ 2 siblings.
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
	if st.SimRuns != 1 || st.ColdRuns() != 1 {
		t.Fatalf("lone Run accounting: %+v", st)
	}
}

// RunAll groups of fewer than two distinct unsatisfied requests must also
// stay cold — re-running an already-completed grid must not suddenly plan
// warm-ups for store-warm cells.
func TestPrefixPlanningSkipsSatisfiedRequests(t *testing.T) {
	r := NewRunner(QuickOptions())
	ctx := context.Background()
	grid := fig4Grid()
	if _, err := r.RunAll(ctx, grid); err != nil {
		t.Fatal(err)
	}
	first := r.Stats()
	if first.ForkedRuns == 0 {
		t.Fatalf("shareable grid did not share: %+v", first)
	}
	// Second submission: everything memoized, no new prefixes, no new runs.
	if _, err := r.RunAll(ctx, grid); err != nil {
		t.Fatal(err)
	}
	if second := r.Stats(); second != first {
		t.Fatalf("re-submitted grid did new work: %+v -> %+v", first, second)
	}
}

// NoPrefixShare and fault-injected runners must behave exactly as before
// the subsystem existed.
func TestPrefixSharingDisabledPaths(t *testing.T) {
	opts := QuickOptions()
	opts.NoPrefixShare = true
	r := NewRunner(opts)
	if _, err := r.RunAll(context.Background(), fig4Grid()); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.PrefixRuns != 0 || st.ForkedRuns != 0 {
		t.Fatalf("NoPrefixShare runner shared: %+v", st)
	}
	if st.SimRuns != 8 {
		t.Fatalf("cold grid ran %d sims, want 8", st.SimRuns)
	}
}

// TestProfiledForkMatchesCold pins the premise that lets Fig. 1's sharing
// report ride the grid's own InfCap cell: for every Fig. 1 app, the
// profiled prefix-forked run reports exactly what a cold profiled run
// reports (the profiler ignores the main thread, and workers only exist
// past the warm-up boundary), and the profiler, a passive observer, leaves
// the result JSON byte-identical to an unprofiled run's.
func TestProfiledForkMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("every Fig. 1 app three ways; skipped in -short mode")
	}
	ctx := context.Background()
	coldOpts := QuickOptions()
	coldOpts.NoPrefixShare = true
	cold := NewRunner(coldOpts)
	shared := NewRunner(QuickOptions())
	for _, spec := range workloads.All() {
		p8 := req(spec.Name, workloads.Small, sim.HTMP8, sim.HintNone)
		inf := req(spec.Name, workloads.Small, sim.HTMInfCap, sim.HintNone)

		before := shared.Stats()
		out, err := shared.RunAll(ctx, []Request{p8, inf})
		if err != nil {
			t.Fatal(err)
		}
		if d := shared.Stats().Sub(before); d.ForkedRuns != 2 {
			t.Fatalf("%s: Fig. 1 pair not prefix-forked: %+v", spec.Name, d)
		}
		coldRes, err := cold.Run(ctx, inf)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := cold.runConfig(ctx, spec, workloads.Small, cold.configFor(spec, inf))
		if err != nil {
			t.Fatal(err)
		}

		forkRep, coldRep := shared.report(inf), cold.report(inf)
		if forkRep == nil || coldRep == nil {
			t.Fatalf("%s: missing report: forked %v, cold %v", spec.Name, forkRep, coldRep)
		}
		if *forkRep != *coldRep {
			t.Errorf("%s: forked report differs from cold:\nforked: %+v\ncold:   %+v", spec.Name, *forkRep, *coldRep)
		}
		want, _ := json.Marshal(plain)
		for name, res := range map[string]*sim.Result{"forked": out[1], "cold": coldRes} {
			if got, _ := json.Marshal(res); !bytes.Equal(got, want) {
				t.Errorf("%s: %s profiled result JSON differs from the unprofiled run's", spec.Name, name)
			}
		}
	}
}

// TestFig1SimulatesOnlyItsCells: a cold Fig. 1 runs exactly its P8 and
// InfCap cells, both prefix-forked from one shared warm-up per app; the
// sharing reports cost no separate run.
func TestFig1SimulatesOnlyItsCells(t *testing.T) {
	r := quick("labyrinth", "kmeans")
	if _, err := r.Fig1(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.SimRuns != 4 || st.ForkedRuns != 4 || st.PrefixRuns != 2 {
		t.Fatalf("Fig. 1 over 2 apps: %+v, want 4 simulations, all forked, from 2 warm-ups", st)
	}
}
