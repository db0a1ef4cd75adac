package workloads

import (
	"context"
	"testing"

	"hintm/internal/classify"
	"hintm/internal/htm"
	"hintm/internal/ir"
	"hintm/internal/sim"
)

// runSmall builds, classifies, and simulates a workload at Small scale.
func runSmall(t *testing.T, name string, cfg sim.Config) (*classify.Report, *sim.Result) {
	t.Helper()
	spec, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	threads := spec.DefaultThreads
	if threads > cfg.Contexts() {
		threads = cfg.Contexts()
	}
	mod := spec.Build(threads, Small)
	rep, err := classify.Run(mod)
	if err != nil {
		t.Fatalf("%s classify: %v", name, err)
	}
	m, err := sim.New(cfg, mod)
	if err != nil {
		t.Fatalf("%s sim.New: %v", name, err)
	}
	res, err := m.Run(context.Background())
	if err != nil {
		t.Fatalf("%s run: %v", name, err)
	}
	return rep, res
}

func TestAllWorkloadsBuildVerifyAndRun(t *testing.T) {
	if len(All()) != 10 {
		t.Fatalf("expected 10 workloads, have %d: %v", len(All()), Names())
	}
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			_, res := runSmall(t, spec.Name, sim.DefaultConfig())
			if res.Commits+res.FallbackCommits == 0 {
				t.Fatalf("%s committed nothing: %v", spec.Name, res)
			}
			if res.Cycles <= 0 {
				t.Fatalf("%s has no cycles", spec.Name)
			}
		})
	}
}

func TestAllScalesBuild(t *testing.T) {
	for _, spec := range All() {
		for _, scale := range []Scale{Small, Medium, Large} {
			mod := spec.BuildDefault(scale)
			if err := mod.Verify(); err != nil {
				t.Errorf("%s@%v: %v", spec.Name, scale, err)
			}
		}
	}
}

func TestTinyTxWorkloadsNoCapacityAborts(t *testing.T) {
	for _, name := range []string{"kmeans", "ssca2"} {
		_, res := runSmall(t, name, sim.DefaultConfig())
		if res.Aborts[htm.AbortCapacity] != 0 {
			t.Errorf("%s: tiny TXs must not capacity-abort: %v", name, res)
		}
	}
}

func TestCapacityBoundWorkloadsAbortAtBaseline(t *testing.T) {
	for _, name := range []string{"labyrinth", "bayes", "yada", "genome"} {
		_, res := runSmall(t, name, sim.DefaultConfig())
		if res.Aborts[htm.AbortCapacity] == 0 {
			t.Errorf("%s: expected baseline capacity aborts: %v", name, res)
		}
	}
}

func TestLabyrinthStaticClassificationStrong(t *testing.T) {
	spec, _ := ByName("labyrinth")
	mod := spec.Build(8, Small)
	rep, err := classify.Run(mod)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replicated == 0 {
		t.Fatalf("labyrinth should replicate copyGrid/expand: %v", rep)
	}
	if rep.SafeTxStores == 0 || rep.SafeTxLoads == 0 {
		t.Fatalf("labyrinth static marks missing: %v", rep)
	}

	// HinTM-st must eliminate most capacity aborts (paper: ~80%).
	cfgBase := sim.DefaultConfig()
	_, base := runSmall(t, "labyrinth", cfgBase)
	cfgSt := sim.DefaultConfig()
	cfgSt.Hints = sim.HintStatic
	_, st := runSmall(t, "labyrinth", cfgSt)
	if st.Aborts[htm.AbortCapacity]*2 >= base.Aborts[htm.AbortCapacity] {
		t.Errorf("HinTM-st capacity aborts %d vs baseline %d: expected >50%% cut",
			st.Aborts[htm.AbortCapacity], base.Aborts[htm.AbortCapacity])
	}
	if st.Cycles >= base.Cycles {
		t.Errorf("HinTM-st slower than baseline: %d vs %d", st.Cycles, base.Cycles)
	}
}

func TestDynOnlyWorkloads(t *testing.T) {
	// genome/intruder/yada: static must find (almost) nothing; dynamic
	// should mark plenty of reads safe.
	for _, name := range []string{"genome", "intruder"} {
		spec, _ := ByName(name)
		mod := spec.Build(spec.DefaultThreads, Small)
		rep, err := classify.Run(mod)
		if err != nil {
			t.Fatal(err)
		}
		if rep.SafeTxLoads+rep.SafeTxStores > rep.TxLoads/10 {
			t.Errorf("%s: static classification found too much: %v", name, rep)
		}
	}

	cfgDyn := sim.DefaultConfig()
	cfgDyn.Hints = sim.HintDynamic
	for _, name := range []string{"genome", "intruder", "bayes"} {
		_, res := runSmall(t, name, cfgDyn)
		if res.DynSafeAccesses == 0 {
			t.Errorf("%s: dynamic classification marked nothing", name)
		}
	}
}

func TestGenomeDynReducesCapacityAborts(t *testing.T) {
	_, base := runSmall(t, "genome", sim.DefaultConfig())
	cfgDyn := sim.DefaultConfig()
	cfgDyn.Hints = sim.HintDynamic
	_, dyn := runSmall(t, "genome", cfgDyn)
	if dyn.Aborts[htm.AbortCapacity] >= base.Aborts[htm.AbortCapacity] {
		t.Errorf("genome dyn: capacity %d vs baseline %d",
			dyn.Aborts[htm.AbortCapacity], base.Aborts[htm.AbortCapacity])
	}
}

func TestBayesDynStrong(t *testing.T) {
	_, base := runSmall(t, "bayes", sim.DefaultConfig())
	cfgFull := sim.DefaultConfig()
	cfgFull.Hints = sim.HintFull
	_, full := runSmall(t, "bayes", cfgFull)
	if full.Aborts[htm.AbortCapacity]*2 >= base.Aborts[htm.AbortCapacity] {
		t.Errorf("bayes HinTM: capacity %d vs baseline %d",
			full.Aborts[htm.AbortCapacity], base.Aborts[htm.AbortCapacity])
	}
}

func TestTpccPConflictDominated(t *testing.T) {
	_, res := runSmall(t, "tpcc-p", sim.DefaultConfig())
	conflicts := res.Aborts[htm.AbortConflict]
	capacity := res.Aborts[htm.AbortCapacity]
	if conflicts == 0 {
		t.Fatalf("tpcc-p saw no conflicts: %v", res)
	}
	if capacity > conflicts {
		t.Errorf("tpcc-p should be conflict-dominated: conflicts=%d capacity=%d",
			conflicts, capacity)
	}
}

func TestTpccNoStaticStagingSafe(t *testing.T) {
	spec, _ := ByName("tpcc-no")
	mod := spec.Build(8, Small)
	rep, err := classify.Run(mod)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SafeTxLoads == 0 || rep.SafeTxStores == 0 {
		t.Fatalf("tpcc-no staging should be statically safe: %v", rep)
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown workload")
	}
	if s, err := ByName("kmeans"); err != nil || s.Name != "kmeans" {
		t.Fatalf("ByName(kmeans): %v %v", s, err)
	}
}

func TestPaperThreadCounts(t *testing.T) {
	for _, name := range []string{"genome", "yada"} {
		s, _ := ByName(name)
		if s.DefaultThreads != 4 {
			t.Errorf("%s threads = %d, want 4 (paper §V)", name, s.DefaultThreads)
		}
	}
	for _, name := range []string{"kmeans", "labyrinth", "vacation", "tpcc-p"} {
		s, _ := ByName(name)
		if s.DefaultThreads != 8 {
			t.Errorf("%s threads = %d, want 8", name, s.DefaultThreads)
		}
	}
}

func TestScaleString(t *testing.T) {
	for _, s := range []Scale{Small, Medium, Large} {
		if s.String() == "" {
			t.Error("empty scale name")
		}
	}
}

// TestTextualRoundTrip: every workload module (before and after
// classification) must survive print → parse → print exactly.
func TestTextualRoundTrip(t *testing.T) {
	for _, spec := range All() {
		mod := spec.BuildDefault(Small)
		text := mod.String()
		parsed, err := ir.Parse(text)
		if err != nil {
			t.Fatalf("%s: parse: %v", spec.Name, err)
		}
		if parsed.String() != text {
			t.Fatalf("%s: round trip differs", spec.Name)
		}
		if _, err := classify.Run(mod); err != nil {
			t.Fatal(err)
		}
		text2 := mod.String()
		parsed2, err := ir.Parse(text2)
		if err != nil {
			t.Fatalf("%s: parse classified: %v", spec.Name, err)
		}
		if parsed2.String() != text2 {
			t.Fatalf("%s: classified round trip differs", spec.Name)
		}
	}
}

// --- intset microbenchmarks (Extra workloads) ---

func TestExtraWorkloadsExcludedFromPaperSuite(t *testing.T) {
	if len(All()) != 10 {
		t.Fatalf("paper suite = %d workloads, want 10", len(All()))
	}
	if len(registry) != 11 {
		t.Fatalf("registry = %d workloads, want the paper's 10 plus intset-ll", len(registry))
	}
	for _, s := range All() {
		if s.Extra {
			t.Errorf("%s marked Extra but in paper suite", s.Name)
		}
	}
	// Extra workloads stay reachable by name for direct runs and
	// hypotheses, only the paper sweeps skip them.
	if ll, err := ByName("intset-ll"); err != nil || !ll.Extra {
		t.Fatalf("intset-ll: %v, want a registered Extra workload", err)
	}
}

func TestIntsetLLIsHinTMWorstCase(t *testing.T) {
	// Pointer chasing over shared read-write nodes: hints cannot reduce the
	// footprint, so capacity aborts persist — but InfCap eliminates them.
	_, base := runSmall(t, "intset-ll", sim.DefaultConfig())
	if base.Aborts[htm.AbortCapacity] == 0 {
		t.Fatalf("intset-ll baseline should capacity-abort: %v", base)
	}
	cfgFull := sim.DefaultConfig()
	cfgFull.Hints = sim.HintFull
	_, full := runSmall(t, "intset-ll", cfgFull)
	red := 1 - float64(full.Aborts[htm.AbortCapacity])/float64(base.Aborts[htm.AbortCapacity])
	if red > 0.5 {
		t.Errorf("hints should NOT rescue the shared linked list: reduction %.0f%%", red*100)
	}
	cfgInf := sim.DefaultConfig()
	cfgInf.HTM = sim.HTMInfCap
	_, inf := runSmall(t, "intset-ll", cfgInf)
	if inf.Aborts[htm.AbortCapacity] != 0 {
		t.Fatalf("InfCap must not capacity-abort: %v", inf)
	}
	if inf.Cycles >= base.Cycles {
		t.Errorf("InfCap should beat P8: %d vs %d", inf.Cycles, base.Cycles)
	}
}
