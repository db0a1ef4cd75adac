package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hintm/internal/fault"
	"hintm/internal/sim"
	"hintm/internal/store"
	"hintm/internal/workloads"
)

// storeOpts returns quick options bound to a fresh store over dir.
func storeOpts(t *testing.T, dir string) Options {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := QuickOptions()
	opts.Filter = []string{"labyrinth"}
	opts.Store = st
	return opts
}

// TestStoreWarmRunByteIdentical is the subsystem's central guarantee: the
// same seeded Request served cold (simulated, persisted) and then warm
// (recalled by a brand-new runner over the same store) yields deeply equal
// results, byte-identical JSON encodings and byte-identical stored object
// bytes — and the warm runner never invokes the simulator.
func TestStoreWarmRunByteIdentical(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	req := Request{Workload: "labyrinth", Scale: workloads.Small, HTM: sim.HTMP8, Hints: sim.HintFull}

	cold := NewRunner(storeOpts(t, dir))
	res1, err := cold.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.SimRuns != 1 || st.Derived != 0 {
		t.Fatalf("cold run: %+v, want 1 simulation", st)
	}
	_, raw1, err := cold.opts.Store.Get(cold.StoreKey(req))
	if err != nil || raw1 == nil {
		t.Fatalf("cold run did not persist: raw=%v err=%v", raw1, err)
	}

	warm := NewRunner(storeOpts(t, dir))
	res2, err := warm.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.SimRuns != 0 || st.Derived != 0 || st.StoreHits != 1 {
		t.Fatalf("warm run: %+v, want 0 simulations (store hit)", st)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("warm result differs from cold:\ncold: %v\nwarm: %v", res1, res2)
	}
	b1, _ := json.Marshal(res1)
	b2, _ := json.Marshal(res2)
	if !bytes.Equal(b1, b2) {
		t.Errorf("result JSON differs:\ncold: %s\nwarm: %s", b1, b2)
	}
	_, raw2, _ := warm.opts.Store.Get(warm.StoreKey(req))
	if !bytes.Equal(raw1, raw2) {
		t.Error("stored object bytes changed between cold and warm reads")
	}
}

// renderFigs renders Figs. 1 and 4 by a fresh runner over the store in dir
// and returns the text and the runner's counters.
func renderFigs(t *testing.T, dir string) (string, RunStats) {
	t.Helper()
	r := NewRunner(storeOpts(t, dir))
	var sb strings.Builder
	for _, render := range []func(context.Context, io.Writer) error{r.RenderFig1, r.RenderFig4} {
		if err := render(context.Background(), &sb); err != nil {
			t.Fatal(err)
		}
	}
	return sb.String(), r.Stats()
}

// TestStoreWarmFigureByteIdentical renders the same figures cold and warm
// and requires identical text — the regeneration workflow the store exists
// for. Fig. 1 is included: its sharing reports are stored with its InfCap
// cells, so the warm render simulates nothing.
func TestStoreWarmFigureByteIdentical(t *testing.T) {
	dir := t.TempDir()
	coldOut, cold := renderFigs(t, dir)
	warmOut, warm := renderFigs(t, dir)
	// Labyrinth's 5 distinct cells: each static twin ran a static-safe
	// access in a transaction and the P8 baseline overflows its buffer, so
	// none is derived.
	if cold.SimRuns != 5 || cold.Derived != 0 {
		t.Fatalf("cold render: %+v, want 5 simulations", cold)
	}
	if warm.SimRuns != 0 || warm.Derived != 0 {
		t.Errorf("warm render: %+v, want 0 simulations and 0 derived cells", warm)
	}
	if coldOut != warmOut {
		t.Errorf("warm figure differs from cold:\n--- cold ---\n%s--- warm ---\n%s", coldOut, warmOut)
	}
}

// TestStoreHealsEntryWithoutProfile: an InfCap cell stored without a sharing
// report (as a store written before reports were stored holds it) is a miss
// for the profiled request. It re-simulates exactly once, the rewritten
// entry carries the report next to unchanged result bytes, and the next
// render simulates nothing. Entries of other requests carry no report.
func TestStoreHealsEntryWithoutProfile(t *testing.T) {
	dir := t.TempDir()
	coldOut, _ := renderFigs(t, dir)

	r := NewRunner(storeOpts(t, dir))
	st := r.opts.Store
	inf := req("labyrinth", workloads.Small, sim.HTMInfCap, sim.HintNone)
	p8 := req("labyrinth", workloads.Small, sim.HTMP8, sim.HintNone)
	if e, _, _ := st.Get(r.StoreKey(p8)); e == nil || len(e.Profile) != 0 {
		t.Fatalf("P8 entry should be stored without a report: %+v", e)
	}
	e, _, _ := st.Get(r.StoreKey(inf))
	if e == nil || len(e.Profile) == 0 {
		t.Fatalf("InfCap entry stored without a report: %+v", e)
	}
	result := e.Result
	e.Profile = nil
	if _, err := st.Put(*e); err != nil {
		t.Fatal(err)
	}

	healOut, heal := renderFigs(t, dir)
	if heal.SimRuns != 1 || heal.Derived != 0 {
		t.Errorf("render over a report-less InfCap entry: %+v, want 1 simulation", heal)
	}
	e, _, _ = st.Get(r.StoreKey(inf))
	if e == nil || len(e.Profile) == 0 || !bytes.Equal(e.Result, result) {
		t.Fatalf("healed entry: %+v", e)
	}
	warmOut, warm := renderFigs(t, dir)
	if warm.SimRuns != 0 || warm.Derived != 0 {
		t.Errorf("render after healing: %+v, want 0 simulations", warm)
	}
	if healOut != coldOut || warmOut != coldOut {
		t.Errorf("figure text moved:\n--- cold ---\n%s--- healed ---\n%s--- warm ---\n%s", coldOut, healOut, warmOut)
	}
}

// TestRunnersShareOneStoreDirectory: two runners, each on its own Store
// value over one directory, run disjoint grids at the same time. A fresh
// runner over that directory then recalls both grids, simulating and
// deriving nothing: every cell either runner simulated or derived reached
// the shared directory.
func TestRunnersShareOneStoreDirectory(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	var grids [][]Request
	for _, wl := range []string{"labyrinth", "genome"} {
		var g []Request
		for _, kind := range []sim.HTMKind{sim.HTMP8, sim.HTMInfCap} {
			for _, hints := range []sim.HintMode{sim.HintNone, sim.HintStatic, sim.HintDynamic, sim.HintFull} {
				g = append(g, req(wl, workloads.Small, kind, hints))
			}
		}
		grids = append(grids, g)
	}
	runners := []*Runner{NewRunner(storeOpts(t, dir)), NewRunner(storeOpts(t, dir))}
	var wg sync.WaitGroup
	for i, r := range runners {
		wg.Add(1)
		go func(r *Runner, g []Request) {
			defer wg.Done()
			if _, err := r.RunAll(ctx, g); err != nil {
				t.Error(err)
			}
		}(r, grids[i])
	}
	wg.Wait()
	if runners[0].Stats().Derived == 0 || runners[1].Stats().Derived == 0 {
		t.Fatalf("cold runners: %+v, %+v; want each grid to derive a cell", runners[0].Stats(), runners[1].Stats())
	}

	warm := NewRunner(storeOpts(t, dir))
	for i, g := range grids {
		cold, err := runners[i].RunAll(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		recalled, err := warm.RunAll(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, recalled) {
			t.Errorf("grid %d: recalled results differ from the cold runner's", i)
		}
	}
	if st := warm.Stats(); st.SimRuns != 0 || st.Derived != 0 || st.StoreHits != uint64(len(grids[0])+len(grids[1])) {
		t.Errorf("warm runner: %+v, want every cell a store hit", st)
	}
}

// TestStoreKeyCoversRunDeterminants asserts the canonical key moves with
// every input that changes a run's result — and only with those.
func TestStoreKeyCoversRunDeterminants(t *testing.T) {
	base := QuickOptions()
	req := Request{Workload: "labyrinth", Scale: workloads.Small, HTM: sim.HTMP8, Hints: sim.HintNone, SMT: 1}
	key := func(opts Options, q Request) string { return NewRunner(opts).StoreKey(q) }

	k0 := key(base, req)
	if k0 != key(base, req) {
		t.Fatal("key not stable for identical inputs")
	}
	// SMT 0 normalizes to 1: one cache slot, one key.
	if k0 != key(base, Request{Workload: "labyrinth", Scale: workloads.Small, HTM: sim.HTMP8}) {
		t.Error("SMT 0 and SMT 1 should share a key")
	}

	seeded := base
	seeded.Seed = 99
	if key(seeded, req) == k0 {
		t.Error("seed change did not change the key")
	}
	faulty := base
	var err error
	if faulty.Faults, err = fault.ParsePlan("spurious=0.01"); err != nil {
		t.Fatal(err)
	}
	if key(faulty, req) == k0 {
		t.Error("fault plan change did not change the key")
	}
	capped := base
	capped.MaxCycles = 12345
	if key(capped, req) == k0 {
		t.Error("max-cycles change did not change the key")
	}
	other := req
	other.Hints = sim.HintFull
	if key(base, other) == k0 {
		t.Error("hint-mode change did not change the key")
	}
	sized := req
	sized.SigBits = 256
	if key(base, sized) == k0 {
		t.Error("signature-size change did not change the key")
	}
	// SigBits 0 means "config default": its preimage must stay exactly the
	// pre-SigBits encoding, so every store entry written before the field
	// existed is still addressable (TestStorePreimageIsCanonical pins the
	// bytes).
	if key(base, req) != k0 {
		t.Error("zero SigBits shifted the key")
	}
	// The configuration overrides follow the same rule: set, each moves
	// the key; zero, the key is the pre-override one.
	for name, set := range map[string]func(*Request){
		"P8Entries":       func(q *Request) { q.P8Entries = 16 },
		"CapacityRetries": func(q *Request) { q.CapacityRetries = 2 },
		"PageCostPct":     func(q *Request) { q.PageCostPct = 50 },
	} {
		q := req
		set(&q)
		if key(base, q) == k0 {
			t.Errorf("%s change did not change the key", name)
		}
		if q.String() == req.String() {
			t.Errorf("%s change did not change the request's name", name)
		}
	}
	pre := string(NewRunner(base).KeyPreimage(req))
	for _, field := range []string{"p8Entries", "capacityRetries", "pageCostPct"} {
		if strings.Contains(pre, field) {
			t.Errorf("zero override %s appears in the preimage %s", field, pre)
		}
	}

	// A request's own seed and fault plan are run determinants like the
	// options': set, each moves the key to exactly the one the same option
	// gives; zero, each resolves to the runner's, so the key is k0.
	reqSeeded := req
	reqSeeded.Seed = 99
	if key(base, reqSeeded) != key(seeded, req) || key(base, reqSeeded) == k0 {
		t.Error("Request.Seed 99 did not address the Options.Seed 99 run")
	}
	reqFaulty := req
	reqFaulty.Faults = faulty.Faults
	if key(base, reqFaulty) != key(faulty, req) || key(base, reqFaulty) == k0 {
		t.Error("Request.Faults did not address the Options.Faults run")
	}
	explicit := req
	explicit.Seed, explicit.Faults = base.Seed, base.Faults
	if key(base, explicit) != k0 || key(seeded, req) != key(seeded, Request{Workload: "labyrinth", Scale: workloads.Small, HTM: sim.HTMP8, Seed: 99}) {
		t.Error("an explicit runner seed shifted the key")
	}
	if reqSeeded.String() != req.String() || reqFaulty.String() != req.String() {
		t.Error("seed or fault plan changed the request's name")
	}

	// Options that do NOT reach the simulator must not shift addresses —
	// a wider worker pool serves the same cache.
	wide := base
	wide.Workers = 7
	if key(wide, req) != k0 {
		t.Error("worker-count change shifted the key")
	}
}

// TestStorePreimageIsCanonical pins the preimage encoding: changing it
// silently would orphan every existing store.
func TestStorePreimageIsCanonical(t *testing.T) {
	r := NewRunner(QuickOptions())
	req := Request{Workload: "labyrinth", Scale: workloads.Small, HTM: sim.HTMP8S, Hints: sim.HintStatic, SMT: 2}
	want := `{"schema":"hintm-store/v1","workload":"labyrinth","scale":"small","htm":"P8S","hints":"HinTM-st","smt":2,"seed":1}`
	if got := string(r.KeyPreimage(req)); got != want {
		t.Errorf("preimage:\n got %s\nwant %s", got, want)
	}
}
