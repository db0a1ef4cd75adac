package sim_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"hintm/internal/classify"
	"hintm/internal/fault"
	"hintm/internal/htm"
	"hintm/internal/ir"
	"hintm/internal/profile"
	"hintm/internal/sim"
	"hintm/internal/workloads"
)

// runAheadConfigs are the machine configurations the exactness test runs
// every workload under.
var runAheadConfigs = []struct {
	htm   sim.HTMKind
	hints sim.HintMode
	smt   int
}{
	{sim.HTMP8, sim.HintNone, 1},
	{sim.HTMP8, sim.HintFull, 1},
	{sim.HTMP8S, sim.HintFull, 1},
	{sim.HTML1TM, sim.HintFull, 2},
	{sim.HTMInfCap, sim.HintNone, 1},
	{sim.HTMSTM, sim.HintFull, 1},
}

// runAheadCell builds spec's classified module and machine configuration
// the way the harness does, sized by sim.Config.SizeFor: with SMT every
// core is shared.
func runAheadCell(t *testing.T, spec *workloads.Spec, htm sim.HTMKind, hints sim.HintMode, smt int) (*ir.Module, sim.Config) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.HTM, cfg.Hints, cfg.SMT = htm, hints, smt
	cfg.SizeFor(spec.DefaultThreads * smt)
	mod := spec.Build(spec.DefaultThreads*smt, workloads.Small)
	if _, err := classify.Run(mod); err != nil {
		t.Fatal(err)
	}
	return mod, cfg
}

// runScheduled runs one cell with run-ahead on or off and returns the
// machine (for its settle counters), the result and the sharing report
// when profiled.
func runScheduled(t *testing.T, mod *ir.Module, cfg sim.Config, runAhead, profiled bool) (*sim.Machine, []byte, *profile.Report) {
	t.Helper()
	m, err := sim.New(cfg, mod)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if !runAhead {
		sim.DisableRunAhead(m)
	}
	var prof *profile.Sharing
	if profiled {
		prof = profile.NewSharing(cfg.Contexts() - 1)
		m.SetProfiler(prof)
	}
	res, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if prof == nil {
		return m, js, nil
	}
	rep := prof.Report()
	return m, js, &rep
}

// updateDigests rewrites testdata/result_digests.txt from the current
// simulator. Regenerate only from a tree whose results are known good:
//
//	go test ./internal/sim -run TestRunAheadExact -update
var updateDigests = flag.Bool("update", false, "rewrite testdata/result_digests.txt from the current simulator")

const digestsPath = "testdata/result_digests.txt"

// TestRunAheadExact pins run-ahead scheduling as exact: every workload under
// every configuration, seeds 1 and 2, yields byte-identical results with it
// on and off. Both settle paths must fire somewhere in the set, so a settle
// that went wrong would show. The SHA-256 of each cell's Result JSON must
// also match the committed digest, which catches a change that moves both
// schedules alike.
func TestRunAheadExact(t *testing.T) {
	var aborts, charges uint64
	var lines []string
	for _, seed := range []uint64{1, 2} {
		for _, spec := range workloads.All() {
			for _, c := range runAheadConfigs {
				name := fmt.Sprintf("%s/%v/%v/smt%d/seed%d", spec.Name, c.htm, c.hints, c.smt, seed)
				mod, cfg := runAheadCell(t, spec, c.htm, c.hints, c.smt)
				cfg.Seed = seed
				_, ref, _ := runScheduled(t, mod, cfg, false, false)
				m, got, _ := runScheduled(t, mod, cfg, true, false)
				if string(got) != string(ref) {
					t.Errorf("%s: run-ahead result differs:\n off: %s\n on:  %s", name, ref, got)
				}
				a, ch := sim.Settles(m)
				aborts += a
				charges += ch
				sum := sha256.Sum256(got)
				lines = append(lines, name+" "+hex.EncodeToString(sum[:]))
			}
		}
	}
	t.Logf("settles: %d abort rewinds, %d shootdown charges", aborts, charges)
	if aborts == 0 || charges == 0 {
		t.Errorf("settle paths not exercised: %d abort rewinds, %d shootdown charges", aborts, charges)
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateDigests {
		if err := os.WriteFile(digestsPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestsPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%d committed digests, %d cells", len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("result drift:\n got:  %s\n want: %s", lines[i], wantLines[i])
		}
	}
}

// TestRunAheadExactUnderFaults extends the exactness pin to fault
// campaigns, which run ahead like any untraced run: every workload under
// every configuration gives byte-identical results with run-ahead on and off
// under spurious-abort plans, and a panic-tx plan panics at the same
// transaction, executed by the same context at the same clock, both ways.
func TestRunAheadExactUnderFaults(t *testing.T) {
	var spurious uint64
	for _, spec := range workloads.All() {
		for _, c := range runAheadConfigs {
			mod, cfg := runAheadCell(t, spec, c.htm, c.hints, c.smt)
			for _, plan := range []fault.Plan{
				{SpuriousProb: 0.2},
				{SpuriousProb: 0.5, SpuriousWindow: 8},
				{SpuriousProb: 0.9},
			} {
				name := fmt.Sprintf("%s/%v/%v/smt%d/%v", spec.Name, c.htm, c.hints, c.smt, plan)
				cfg.Faults = plan
				_, ref, _ := runScheduled(t, mod, cfg, false, false)
				_, got, _ := runScheduled(t, mod, cfg, true, false)
				if string(got) != string(ref) {
					t.Errorf("%s: run-ahead result differs:\n off: %s\n on:  %s", name, ref, got)
				}
				var res sim.Result
				if err := json.Unmarshal(got, &res); err != nil {
					t.Fatal(err)
				}
				spurious += res.Aborts[htm.AbortSpurious]
			}
		}
	}
	if spurious == 0 {
		t.Error("campaigns vacuous: no spurious abort fired")
	}

	panicSite := func(mod *ir.Module, cfg sim.Config, runAhead bool) (site [3]int64) {
		t.Helper()
		m, err := sim.New(cfg, mod)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Release()
		if !runAhead {
			sim.DisableRunAhead(m)
		}
		defer func() {
			ip, ok := recover().(fault.InjectedPanic)
			if !ok {
				t.Fatalf("run did not panic with fault.InjectedPanic")
			}
			clock, id := sim.Acting(m)
			site = [3]int64{int64(ip.Tx), clock, int64(id)}
		}()
		m.Run(context.Background())
		return
	}
	for _, name := range []string{"kmeans", "vacation"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		mod, cfg := runAheadCell(t, spec, sim.HTMP8, sim.HintFull, 1)
		cfg.Faults = fault.Plan{PanicTx: 40}
		if off, on := panicSite(mod, cfg, false), panicSite(mod, cfg, true); off != on {
			t.Errorf("%s: panic-tx site (tx, clock, context) differs: off %v, on %v", name, off, on)
		}
	}
}

// TestRunAheadSharingProfile checks the sharing profiler's report (Fig. 1)
// is unchanged by run-ahead: its events are memory accesses and
// transaction events, whose global order run-ahead keeps.
func TestRunAheadSharingProfile(t *testing.T) {
	for _, name := range []string{"intruder", "labyrinth", "vacation"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		mod, cfg := runAheadCell(t, spec, sim.HTMInfCap, sim.HintNone, 1)
		_, ref, refRep := runScheduled(t, mod, cfg, false, true)
		_, got, gotRep := runScheduled(t, mod, cfg, true, true)
		if string(got) != string(ref) {
			t.Errorf("%s: profiled run-ahead result differs", name)
		}
		if !reflect.DeepEqual(refRep, gotRep) {
			t.Errorf("%s: sharing report differs:\n off: %+v\n on:  %+v", name, *refRep, *gotRep)
		}
	}
}

// TestRunAheadCapsExact checks the guards read committed state. A run
// capped at exactly its own cycle count completes, so a run-ahead clock an
// abort later rolls back never trips the cycle cap. The step cap is exact:
// a run needing S steps completes under MaxSteps = S and fails under S-1.
// Compute-bound apps cover worker run-ahead; bayes and tpcc-no, whose main
// thread makes many of the steps, cover main-thread batches.
func TestRunAheadCapsExact(t *testing.T) {
	run := func(mod *ir.Module, cfg sim.Config) (*sim.Result, error) {
		m, err := sim.New(cfg, mod)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Release()
		return m.Run(context.Background())
	}
	all := []int{0, 1, 2, 3}
	for _, cell := range []struct {
		app  string
		cfgs []int // indices into runAheadConfigs
	}{
		{"kmeans", all}, {"labyrinth", all}, {"intruder", all}, {"genome", all},
		{"bayes", []int{1}}, {"tpcc-no", []int{1}},
	} {
		spec, err := workloads.ByName(cell.app)
		if err != nil {
			t.Fatal(err)
		}
		for _, ci := range cell.cfgs {
			c := runAheadConfigs[ci]
			label := fmt.Sprintf("%s/%v/%v/smt%d", cell.app, c.htm, c.hints, c.smt)
			mod, cfg := runAheadCell(t, spec, c.htm, c.hints, c.smt)
			res, err := run(mod, cfg)
			if err != nil {
				t.Fatal(err)
			}
			capped := cfg
			capped.MaxCycles = res.Cycles
			if _, err := run(mod, capped); err != nil {
				t.Errorf("%s: MaxCycles = own cycles %d: %v", label, res.Cycles, err)
			}
			capped.MaxCycles = res.Cycles / 2
			if _, err := run(mod, capped); !errors.Is(err, sim.ErrMaxCycles) {
				t.Errorf("%s: MaxCycles = half its cycles: err = %v, want ErrMaxCycles", label, err)
			}
			capped = cfg
			capped.MaxSteps = res.Steps
			if _, err := run(mod, capped); err != nil {
				t.Errorf("%s: MaxSteps = own steps %d: %v", label, res.Steps, err)
			}
			capped.MaxSteps = res.Steps - 1
			if _, err := run(mod, capped); err == nil {
				t.Errorf("%s: MaxSteps = own steps - 1 completed", label)
			}
		}
	}
}
