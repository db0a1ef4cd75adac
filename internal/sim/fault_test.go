package sim

import (
	"context"
	"testing"

	"hintm/internal/fault"
	"hintm/internal/htm"
)

// Fault campaigns must perturb timing, never semantics: every test here runs
// a workload under injection and asserts both that the faults actually fired
// (the campaign was not vacuous) and that the program's outputs are exactly
// what a fault-free run produces.

func TestSpuriousCampaignPreservesSemantics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = fault.Plan{SpuriousProb: 0.2}
	mod := counterModule(8, 20)
	m, res := runModule(t, mod, cfg)
	if got := m.memory.ReadWord(m.prog.GlobalAddr("ctr")); got != 160 {
		t.Fatalf("counter = %d under spurious campaign, want 160", got)
	}
	if res.Aborts[htm.AbortSpurious] == 0 {
		t.Fatalf("campaign vacuous: no spurious aborts fired (%v)", res)
	}
	if res.Commits+res.FallbackCommits != 160 {
		t.Fatalf("commits %d + fallback %d != 160", res.Commits, res.FallbackCommits)
	}
}

// Same plan + same seed ⇒ bit-identical run, including the injected faults.
func TestFaultCampaignReplaysDeterministically(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = fault.Plan{SpuriousProb: 0.15}
	_, r1 := runModule(t, counterModule(8, 20), cfg)
	_, r2 := runModule(t, counterModule(8, 20), cfg)
	if r1.Cycles != r2.Cycles || r1.Steps != r2.Steps ||
		r1.Aborts[htm.AbortSpurious] != r2.Aborts[htm.AbortSpurious] ||
		r1.TotalAborts() != r2.TotalAborts() {
		t.Fatalf("campaign replay diverged:\n%v\n%v", r1, r2)
	}

	cfg2 := cfg
	cfg2.Seed = 2
	_, r3 := runModule(t, counterModule(8, 20), cfg2)
	if r1.Cycles == r3.Cycles && r1.Aborts[htm.AbortSpurious] == r3.Aborts[htm.AbortSpurious] {
		t.Log("note: seeds 1 and 2 produced identical campaigns (unlikely but legal)")
	}
}

func TestFaultFreeRunUnchangedByFaultPlumbing(t *testing.T) {
	// The zero plan must not even allocate an engine: results match a config
	// that never heard of faults.
	cfg := DefaultConfig()
	_, r1 := runModule(t, counterModule(8, 10), cfg)
	cfg.Faults = fault.Plan{} // explicit zero
	m, r2 := runModule(t, counterModule(8, 10), cfg)
	if m.faults != nil {
		t.Fatal("zero plan allocated a fault engine")
	}
	if r1.Cycles != r2.Cycles || r1.Steps != r2.Steps {
		t.Fatalf("zero plan changed the run: %v vs %v", r1, r2)
	}
}

func TestPanicInjection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = fault.Plan{PanicTx: 5}
	m, err := New(cfg, counterModule(4, 10))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("PanicTx did not panic")
		}
		ip, ok := v.(fault.InjectedPanic)
		if !ok {
			t.Fatalf("panic value %T, want fault.InjectedPanic", v)
		}
		if ip.Tx != 5 {
			t.Errorf("panicked at tx %d, want 5", ip.Tx)
		}
	}()
	m.Run(context.Background())
}
