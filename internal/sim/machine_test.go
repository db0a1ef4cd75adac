package sim

import (
	"context"
	"testing"

	"hintm/internal/htm"
	"hintm/internal/ir"
	"hintm/internal/mem"
)

// TestExplicitAbortRetries: an AbortHint-triggered abort rolls back and the
// retry (with a different PRNG-independent condition) succeeds.
func TestExplicitAbortRetries(t *testing.T) {
	// attempt counter lives OUTSIDE the TX's rollback domain (a global
	// written pre-TX), so the hint fires only on the first attempt.
	b := ir.NewBuilder("explicit")
	b.Global("attempts", 8) // one slot per thread, block-strided would be better but 1 thread only
	b.Global("out", 1)
	w := b.ThreadBody("worker", 1)
	att := w.GlobalAddr("attempts")
	out := w.GlobalAddr("out")

	loopDone := w.NewBlock("ld")
	w.TxBegin()
	// cond = (attempts == 0): with attempts never written, the hint fires
	// on every HTM attempt until the retry budget forces the fallback.
	n := w.Load(att, 0)
	first := w.Cmp(ir.CmpEQ, n, w.C(0))
	w.AbortIf(first)
	v := w.Load(out, 0)
	w.Store(out, 0, w.AddI(v, 1))
	w.TxEnd()
	w.Br(loopDone)
	w.SetBlock(loopDone)
	w.RetVoid()

	mn := b.Function("main", 0)
	nt := mn.C(1)
	mn.Parallel(nt, "worker")
	mn.RetVoid()

	m, res := runModule(t, b.M, DefaultConfig())
	// attempts==0 forever -> the explicit abort fires on every HTM retry
	// until the retry budget forces the fallback lock, where AbortHint is
	// ignored (no HTM TX active) and the critical section completes.
	if res.Aborts[htm.AbortExplicit] == 0 {
		t.Fatalf("no explicit aborts: %v", res)
	}
	if res.FallbackCommits != 1 {
		t.Fatalf("fallback commits = %d, want 1", res.FallbackCommits)
	}
	if got := m.ReadGlobal("out", 0); got != 1 {
		t.Fatalf("out = %d, want 1", got)
	}
}

// TestFallbackLockMutualExclusion: two threads that both always overflow
// must serialize through the lock and still produce an exact sum.
func TestFallbackLockMutualExclusion(t *testing.T) {
	mod := bigTxModule(4, 4, 100) // always overflows P8
	m, res := runModule(t, mod, DefaultConfig())
	if res.FallbackCommits == 0 {
		t.Fatal("expected fallback commits")
	}
	want := int64(99 * 100 / 2)
	for tid := int64(0); tid < 4; tid++ {
		if got := m.ReadGlobal("out", tid); got != want {
			t.Fatalf("out[%d] = %d, want %d", tid, got, want)
		}
	}
}

// TestTwoParallelRegions: a program with two successive parallel regions
// (page-sharing state resets between them).
func TestTwoParallelRegions(t *testing.T) {
	b := ir.NewBuilder("two")
	b.Global("sum", 8)
	w := b.ThreadBody("worker", 1)
	g := w.GlobalAddr("sum")
	off := w.MulI(w.Param(0), 8)
	w.TxBegin()
	v := w.Load(w.Add(g, off), 0)
	w.Store(w.Add(g, off), 0, w.AddI(v, 1))
	w.TxEnd()
	w.RetVoid()

	mn := b.Function("main", 0)
	n := mn.C(4)
	mn.Parallel(n, "worker")
	n2 := mn.C(8)
	mn.Parallel(n2, "worker")
	mn.RetVoid()

	cfg := DefaultConfig()
	cfg.Hints = HintDynamic
	m, res := runModule(t, b.M, cfg)
	if res.Commits+res.FallbackCommits != 12 {
		t.Fatalf("commits = %d, want 12", res.Commits+res.FallbackCommits)
	}
	// Threads 0..3 ran twice, 4..7 once.
	for tid := int64(0); tid < 8; tid++ {
		want := int64(1)
		if tid < 4 {
			want = 2
		}
		if got := m.ReadGlobal("sum", tid); got != want {
			t.Fatalf("sum[%d] = %d, want %d", tid, got, want)
		}
	}
}

// TestMainThreadTransaction: main may run transactions outside any parallel
// region (single-threaded TXs on context 0).
func TestMainThreadTransaction(t *testing.T) {
	b := ir.NewBuilder("maintx")
	b.Global("g", 1)
	w := b.ThreadBody("worker", 1)
	w.RetVoid()
	mn := b.Function("main", 0)
	g := mn.GlobalAddr("g")
	mn.TxBegin()
	mn.Store(g, 0, mn.C(9))
	mn.TxEnd()
	n := mn.C(1)
	mn.Parallel(n, "worker")
	mn.RetVoid()

	m, res := runModule(t, b.M, DefaultConfig())
	if res.Commits != 1 {
		t.Fatalf("commits = %d", res.Commits)
	}
	if got := m.ReadGlobal("g", 0); got != 9 {
		t.Fatalf("g = %d", got)
	}
}

// TestBackoffDelaysRetry: after a conflict abort, the context's clock jumps
// by at least the backoff base before the retry commits.
func TestBackoffDelaysRetry(t *testing.T) {
	cfgA := DefaultConfig()
	cfgA.BackoffBase = 1
	_, low := runModule(t, counterModule(8, 20), cfgA)
	cfgB := DefaultConfig()
	cfgB.BackoffBase = 4096
	_, high := runModule(t, counterModule(8, 20), cfgB)
	if low.TotalAborts() == 0 {
		t.Skip("no contention this run")
	}
	// Large backoff must not deadlock and must still complete all TXs.
	if high.Commits+high.FallbackCommits != 160 {
		t.Fatalf("high-backoff commits = %d", high.Commits+high.FallbackCommits)
	}
}

// TestProfilerReceivesAccesses: the profiler hook observes program accesses.
func TestProfilerReceivesAccesses(t *testing.T) {
	mod := counterModule(2, 3)
	m, err := New(DefaultConfig(), mod)
	if err != nil {
		t.Fatal(err)
	}
	probe := &countingProfiler{}
	m.SetProfiler(probe)
	if _, err := m.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if probe.n == 0 {
		t.Fatal("profiler saw nothing")
	}
}

type countingProfiler struct{ n int }

func (p *countingProfiler) OnAccess(tid int, addr mem.Addr, write, inTx bool) { p.n++ }

// TestCapacityRetryFutility: granting capacity retries must not recover any
// commits — the transaction overflows again every time (paper §I).
func TestCapacityRetryFutility(t *testing.T) {
	base := DefaultConfig()
	_, r0 := runModule(t, bigTxModule(2, 3, 100), base)
	retry := DefaultConfig()
	retry.CapacityRetries = 3
	_, r3 := runModule(t, bigTxModule(2, 3, 100), retry)
	if r3.Commits != r0.Commits {
		t.Fatalf("retries changed HTM commits: %d vs %d", r3.Commits, r0.Commits)
	}
	if r3.Aborts[htm.AbortCapacity] <= r0.Aborts[htm.AbortCapacity] {
		t.Fatalf("retries should multiply capacity aborts: %d vs %d",
			r3.Aborts[htm.AbortCapacity], r0.Aborts[htm.AbortCapacity])
	}
	if r3.Cycles <= r0.Cycles {
		t.Fatalf("futile retries should cost cycles: %d vs %d", r3.Cycles, r0.Cycles)
	}
}
