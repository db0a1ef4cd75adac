package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"

	"hintm/internal/fault"
	"hintm/internal/sim"
	"hintm/internal/workloads"
)

// derivation is one derived cell and the simulated run that answered it.
type derivation struct{ src, dst Request }

// derivations lists r's derived cells. A derived cell shares its source's
// *sim.Result, and a simulated cell's result is its own, so each result
// shared by several requests is one simulation: the first of them in
// family registration order ran it, and the others were derived from it.
func derivations(r *Runner) []derivation {
	r.mu.Lock()
	defer r.mu.Unlock()
	src := make(map[*sim.Result]Request)
	var out []derivation
	for _, fam := range r.fams {
		for _, m := range fam {
			select {
			case <-m.f.done:
			default:
				continue
			}
			if m.f.err != nil || r.runs[m.req] != m.f {
				continue
			}
			if s, ok := src[m.f.val.res]; ok {
				out = append(out, derivation{s, m.req})
			} else {
				src[m.f.val.res] = m.req
			}
		}
	}
	return out
}

// kinds names the rules a derivation used: a static twin (the static bits
// differ), or a tracker change in either direction.
func (d derivation) kinds() (static, p8ToInf, infToP8 bool) {
	static = d.src.Hints.Static() != d.dst.Hints.Static()
	p8ToInf = d.src.HTM != sim.HTMInfCap && d.dst.HTM == sim.HTMInfCap
	infToP8 = d.src.HTM == sim.HTMInfCap && d.dst.HTM != sim.HTMInfCap
	return
}

// checkFresh requires every derived cell of r to be byte-identical to the
// result a fresh runner with r's options simulates for that request alone.
func checkFresh(t *testing.T, r *Runner, ds []derivation) {
	t.Helper()
	ctx := context.Background()
	for _, d := range ds {
		derived, err := r.Run(ctx, d.dst)
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewRunner(r.opts)
		res, err := fresh.Run(ctx, d.dst)
		if err != nil {
			t.Fatal(err)
		}
		if st := fresh.Stats(); st.SimRuns != 1 || st.Derived != 0 {
			t.Fatalf("%v: a lone request ran as %+v, want one simulation", d.dst, st)
		}
		got, _ := json.Marshal(derived)
		want, _ := json.Marshal(res)
		if !bytes.Equal(got, want) {
			t.Errorf("%v derived from %v differs from its own simulation", d.dst, d.src)
		}
	}
}

// TestDerivedCellsMatchFreshRuns pins derivation's one promise: a derived
// cell is exactly the result its own simulation would give. It checks every
// derived cell of the small seed grid, of a labyrinth P8/HinTM buffer sweep
// and of a spurious-fault grid against a fresh simulation, pins the small
// grid's counts, and requires each rule to have fired at least once.
func TestDerivedCellsMatchFreshRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure grid plus a fresh run per derived cell; skipped in -short mode")
	}
	ctx := context.Background()
	r := NewRunner(QuickOptions())
	sum, err := r.BenchResults(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.SimRuns != 80 || st.Derived != 36 {
		t.Errorf("small seed grid: %+v, want 80 simulated and 36 derived of 116", st)
	}
	var figDerived uint64
	for _, f := range sum.figures() {
		figDerived += f.sec.Derived
	}
	if sum.ColdRuns != 80 || sum.Derived != 36 || figDerived != 36 {
		t.Errorf("BenchResults: %d cold, %d derived (%d over its figures), want 80 and 36", sum.ColdRuns, sum.Derived, figDerived)
	}
	// Labyrinth's baseline overflows the P8 buffer, so neither its P8 nor
	// its InfCap baseline answers the other.
	p8, inf := req("labyrinth", workloads.Small, sim.HTMP8, sim.HintNone), req("labyrinth", workloads.Small, sim.HTMInfCap, sim.HintNone)
	for _, d := range derivations(r) {
		if d.dst == r.resolve(p8) || d.dst == r.resolve(inf) {
			t.Errorf("labyrinth baseline %v derived from %v", d.dst, d.src)
		}
	}
	var sweep []Request
	for _, n := range []int{16, 32, 64, 128} {
		q := req("labyrinth", workloads.Small, sim.HTMP8, sim.HintFull)
		q.P8Entries = n
		sweep = append(sweep, q)
	}
	if _, err := r.RunAll(ctx, sweep); err != nil {
		t.Fatal(err)
	}
	ds := derivations(r)
	var static, p8ToInf, infToP8 int
	for _, d := range ds {
		s, pi, ip := d.kinds()
		if s {
			static++
		}
		if pi {
			p8ToInf++
		}
		if ip {
			infToP8++
		}
	}
	if static == 0 || p8ToInf == 0 || infToP8 == 0 {
		t.Errorf("derivations: %d static twins, %d P8→InfCap, %d InfCap→P8; want each rule used", static, p8ToInf, infToP8)
	}
	checkFresh(t, r, ds)

	opts := QuickOptions()
	opts.Filter = []string{"kmeans", "labyrinth", "ssca2"}
	opts.Faults = fault.Plan{SpuriousProb: 0.05}
	faulty := NewRunner(opts)
	if _, err := faulty.Fig4(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := faulty.Fig5(ctx); err != nil {
		t.Fatal(err)
	}
	fds := derivations(faulty)
	if len(fds) == 0 {
		t.Error("the spurious-fault grid derived nothing")
	}
	checkFresh(t, faulty, fds)
}

// TestDerivationWaitRespectsContext: a request waiting on an in-flight
// member of its family returns its own cancellation without a worker slot,
// and the member it waited on still completes and is memoized. Run under
// -race by the Makefile's race target.
func TestDerivationWaitRespectsContext(t *testing.T) {
	opts := QuickOptions()
	opts.Workers = 1
	r := NewRunner(opts)
	src := req("ssca2", workloads.Small, sim.HTMP8, sim.HintFull)
	dst := req("ssca2", workloads.Small, sim.HTMP8, sim.HintDynamic)

	// Hold the only worker slot, so src stays in flight until released.
	release, err := r.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	srcDone := make(chan error, 1)
	go func() {
		_, err := r.Run(context.Background(), src)
		srcDone <- err
	}()
	registered := func(q Request) bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		_, ok := r.runs[r.resolve(q)]
		return ok
	}
	for !registered(src) {
		runtime.Gosched()
	}
	ctx, cancel := context.WithCancel(context.Background())
	dstDone := make(chan error, 1)
	go func() {
		_, err := r.Run(ctx, dst)
		dstDone <- err
	}()
	for !registered(dst) {
		runtime.Gosched()
	}
	cancel()
	if err := <-dstDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiting request: err = %v, want context.Canceled", err)
	}
	release()
	if err := <-srcDone; err != nil {
		t.Fatalf("source: %v", err)
	}
	if st := r.Stats(); st.SimRuns != 1 || st.Derived != 0 {
		t.Fatalf("after the cancelled wait: %+v, want the source's one simulation", st)
	}
	// The cancelled request was evicted; a live retry is answered by the
	// memoized source without simulating.
	res, err := r.Run(context.Background(), dst)
	if err != nil {
		t.Fatal(err)
	}
	srcRes, _ := r.Run(context.Background(), src)
	if st := r.Stats(); st.SimRuns != 1 || st.Derived != 1 || res != srcRes {
		t.Fatalf("live retry: %+v, shared result %v; want it derived from the source", st, res == srcRes)
	}
}
