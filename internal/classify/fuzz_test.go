package classify

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hintm/internal/ir"
	"hintm/internal/sim"
)

// The classifier's soundness contract: marking an access safe must never
// change program semantics. Safe stores skip the undo log, so a wrongly
// "initializing" mark corrupts state across abort/retry — which this fuzzer
// detects by running randomly generated programs on a tiny HTM (to force
// many capacity aborts and retries) with hints off and on, and comparing
// every output word against an InfCap golden run.
//
// Programs are single-threaded (the worker is the only TX thread), so all
// visible state is schedule-independent and any divergence is a classifier
// or rollback bug, not a race.

// genProgram builds a random but always-terminating transactional program.
func genProgram(rng *rand.Rand) *ir.Module {
	b := ir.NewBuilder(fmt.Sprintf("fuzz%d", rng.Int63()))
	b.Global("out", 64)    // observable output array (one page)
	b.Global("shared", 16) // extra shared scratch

	w := b.ThreadBody("worker", 1)

	// Memory targets: a stack slot array, a heap buffer, and the globals.
	alloca := w.Alloca(16)
	heap := w.MallocI(16 * 8)
	out := w.GlobalAddr("out")
	shared := w.GlobalAddr("shared")

	// A pool of scalar registers the generator mixes.
	regs := []ir.Reg{w.Param(0), w.C(1), w.C(7), w.C(13)}
	pick := func() ir.Reg { return regs[rng.Intn(len(regs))] }

	// target returns (baseReg, byte offset) for a random memory location.
	target := func() (ir.Reg, int64) {
		switch rng.Intn(4) {
		case 0:
			return alloca, int64(rng.Intn(16)) * 8
		case 1:
			return heap, int64(rng.Intn(16)) * 8
		case 2:
			return out, int64(rng.Intn(64)) * 8
		default:
			return shared, int64(rng.Intn(16)) * 8
		}
	}

	label := 0
	fresh := func(prefix string) *ir.Block {
		label++
		return w.NewBlock(fmt.Sprintf("%s%d", prefix, label))
	}
	var emitOps func(depth, n int)
	emitOps = func(depth, n int) {
		for i := 0; i < n; i++ {
			switch op := rng.Intn(10); {
			case op < 3: // store
				base, off := target()
				w.Store(base, off, pick())
			case op < 6: // load into the pool
				base, off := target()
				regs = append(regs, w.Load(base, off))
			case op < 8: // arithmetic
				kinds := []ir.BinKind{ir.BinAdd, ir.BinSub, ir.BinMul, ir.BinXor, ir.BinAnd}
				regs = append(regs, w.Bin(kinds[rng.Intn(len(kinds))], pick(), pick()))
			case op < 9 && depth < 2: // branch on a data-dependent condition
				cond := w.Cmp(ir.CmpLT, w.Bin(ir.BinAnd, pick(), w.C(7)), w.C(4))
				then := fresh("t")
				els := fresh("e")
				join := fresh("j")
				w.CondBr(cond, then, els)
				w.SetBlock(then)
				emitOps(depth+1, rng.Intn(3)+1)
				w.Br(join)
				w.SetBlock(els)
				emitOps(depth+1, rng.Intn(3)+1)
				w.Br(join)
				w.SetBlock(join)
			default: // bounded counted loop of stores (defines regions)
				base, off := target()
				iters := int64(rng.Intn(4) + 1)
				iv := w.C(0)
				body := fresh("l")
				done := fresh("d")
				w.Br(body)
				w.SetBlock(body)
				w.Store(base, off, w.Add(pick(), iv))
				w.MovTo(iv, w.AddI(iv, 1))
				c := w.Cmp(ir.CmpLT, iv, w.C(iters))
				w.CondBr(c, body, done)
				w.SetBlock(done)
			}
		}
	}

	// 1-3 transactions with random bodies; accesses between them too.
	nTx := rng.Intn(3) + 1
	for t := 0; t < nTx; t++ {
		emitOps(0, rng.Intn(4))
		w.TxBegin()
		emitOps(0, rng.Intn(12)+6)
		w.TxEnd()
	}
	// Publish everything observable: copy private state into out.
	for i := int64(0); i < 8; i++ {
		v := w.Load(alloca, i*8)
		hv := w.Load(heap, i*8)
		w.Store(out, (32+i)*8, w.Add(v, hv))
	}
	w.FreeI(heap, 16*8)
	w.RetVoid()

	mn := b.Function("main", 0)
	one := mn.C(1) // single-threaded: outputs are schedule-independent
	mn.Parallel(one, "worker")
	mn.RetVoid()
	return b.M
}

// outputs snapshots the observable output array.
func outputs(m *sim.Machine) [64]int64 {
	var o [64]int64
	for i := range o {
		o[i] = m.ReadGlobal("out", int64(i))
	}
	return o
}

func runFuzz(t *testing.T, mod *ir.Module, kind sim.HTMKind, hints sim.HintMode) ([64]int64, *sim.Result) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.HTM = kind
	cfg.Hints = hints
	cfg.P8Entries = 4 // tiny: force capacity aborts and retries
	m, err := sim.New(cfg, mod)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return outputs(m), res
}

// checkSoundness generates the program for one seed, classifies it, and compares every configuration's outputs against the
// InfCap golden run. It reports what the seed exercised so callers can
// assert corpus strength.
func checkSoundness(t *testing.T, seed int64) (sawAborts, sawSafeMarks bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mod := genProgram(rng)
	if err := mod.Verify(); err != nil {
		t.Fatalf("seed %d: generated invalid module: %v", seed, err)
	}
	rep, err := Run(mod)
	if err != nil {
		t.Fatalf("seed %d: classify: %v", seed, err)
	}
	sawSafeMarks = rep.SafeTxLoads+rep.SafeTxStores > 0

	golden, _ := runFuzz(t, mod, sim.HTMInfCap, sim.HintNone)
	baseline, bres := runFuzz(t, mod, sim.HTMP8, sim.HintNone)
	hinted, _ := runFuzz(t, mod, sim.HTMP8, sim.HintStatic)
	full, _ := runFuzz(t, mod, sim.HTMP8, sim.HintFull)
	sawAborts = bres.TotalAborts() > 0

	for name, got := range map[string][64]int64{
		"P8/baseline": baseline, "P8/st": hinted, "P8/full": full,
	} {
		if got != golden {
			t.Fatalf("seed %d: %s output diverged from golden\nmodule:\n%s",
				seed, name, mod.String())
		}
	}
	return sawAborts, sawSafeMarks
}

func TestClassifierSoundnessFuzz(t *testing.T) {
	seeds := 150
	if testing.Short() {
		seeds = 25
	}
	var sawAborts, sawSafeMarks bool
	for seed := 0; seed < seeds; seed++ {
		aborts, marks := checkSoundness(t, int64(seed))
		sawAborts = sawAborts || aborts
		sawSafeMarks = sawSafeMarks || marks
	}
	if !sawSafeMarks {
		t.Error("fuzzer never produced a safe-marked access — generator too weak")
	}
	if !sawAborts {
		t.Error("fuzzer never saw an abort — tiny-buffer pressure missing")
	}
}

// FuzzClassifierSoundness is the native-fuzzing entry point over the same
// property: the engine mutates the generator seed, searching for programs
// where hint-marked accesses change semantics.
// `make fuzz-short` runs it for 10s as part of CI.
func FuzzClassifierSoundness(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSoundness(t, seed)
	})
}
