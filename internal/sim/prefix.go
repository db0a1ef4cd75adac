package sim

import (
	"context"
	"errors"
	"fmt"

	"hintm/internal/htm"
	"hintm/internal/interp"
	"hintm/internal/snap"
)

// Prefix sharing: every grid point over one workload executes an identical
// single-threaded warm-up — data-structure construction, page-table and
// cache population — before the first transaction or parallel region, because
// nothing HTM-, hint- or retry-policy-specific can influence execution until
// transactional machinery first engages. RunToPrefix executes exactly that
// warm-up once and captures the machine as a snap.State; Prefix.Fork then
// materializes any number of sibling machines that resume from the boundary
// under their own full configurations, byte-identical to cold runs.

// ErrNoPrefix reports that a shareable prefix could not be captured: the
// program finished without transactional work, the configuration is not
// prefix-capturable (tracer attached, faults enabled), or the machine was
// not quiescent at the boundary. Callers match it with errors.Is and fall
// back to a cold run.
var ErrNoPrefix = errors.New("sim: no shareable prefix")

// Prefix is one captured warm-up, ready to fork. Steps and Cycles locate the
// boundary (diagnostics; forks re-derive everything from the snapshot).
type Prefix struct {
	cfg   Config
	prog  *interp.Program
	state *snap.State

	Steps  int64
	Cycles int64
}

// PrefixConfig returns the canonical configuration for running cfg's shared
// prefix: every parameter that cannot influence execution before the first
// transaction or parallel region (HTM kind, tracker sizing, versioning,
// retry policy, transactional costs, the static-hint bit) is collapsed to a
// fixed value, so sibling grid points that differ only in those parameters
// map to the same prefix. Parameters the warm-up does observe — topology,
// cache and VM geometry, seed, run limits, and the dynamic-hint bit (it
// decides whether the translation subsystem classifies pages during the
// warm-up's minor faults) — are preserved.
func PrefixConfig(cfg Config) Config {
	d := DefaultConfig()
	p := cfg
	p.HTM = HTMInfCap
	if cfg.Hints.Dynamic() {
		p.Hints = HintDynamic
	} else {
		p.Hints = HintNone
	}
	p.Versioning = d.Versioning
	p.P8Entries, p.SigBits, p.SigHashes = d.P8Entries, d.SigBits, d.SigHashes
	p.MaxConflictRetries, p.CapacityRetries = d.MaxConflictRetries, d.CapacityRetries
	p.BackoffBase = d.BackoffBase
	p.TxBeginCost, p.TxCommitCost = d.TxBeginCost, d.TxCommitCost
	p.EscapeCost = d.EscapeCost
	p.STMReadBarrier, p.STMWriteBarrier = d.STMReadBarrier, d.STMWriteBarrier
	p.AbortFixedCost, p.FallbackPollCost = d.AbortFixedCost, d.FallbackPollCost
	p.Tracer, p.SampleCycles = nil, 0
	return p
}

// PrefixCompatible checks that a run configured by run may resume from a
// prefix captured under prefix: everything the warm-up observed must match,
// and the run must not want per-access instrumentation the prefix did not
// perform (tracing, fault injection).
func PrefixCompatible(prefix, run Config) error {
	switch {
	case run.Cores != prefix.Cores || run.SMT != prefix.SMT:
		return fmt.Errorf("sim: prefix topology %d×%d, run %d×%d: %w",
			prefix.Cores, prefix.SMT, run.Cores, run.SMT, ErrNoPrefix)
	case run.Cache != prefix.Cache:
		return fmt.Errorf("sim: cache geometry differs from prefix: %w", ErrNoPrefix)
	case run.VM != prefix.VM || run.TLBEntries != prefix.TLBEntries:
		return fmt.Errorf("sim: VM costs/TLB geometry differ from prefix: %w", ErrNoPrefix)
	case run.Seed != prefix.Seed:
		return fmt.Errorf("sim: seed %d differs from prefix seed %d: %w",
			run.Seed, prefix.Seed, ErrNoPrefix)
	case run.MaxSteps != prefix.MaxSteps || run.MaxCycles != prefix.MaxCycles ||
		run.WatchdogCycles != prefix.WatchdogCycles:
		return fmt.Errorf("sim: run limits differ from prefix: %w", ErrNoPrefix)
	case run.Hints.Dynamic() != prefix.Hints.Dynamic():
		return fmt.Errorf("sim: dynamic-hint bit differs from prefix: %w", ErrNoPrefix)
	case run.Tracer != nil:
		return fmt.Errorf("sim: traced runs cannot resume a prefix: %w", ErrNoPrefix)
	case run.Faults.Enabled() || prefix.Faults.Enabled():
		return fmt.Errorf("sim: fault-injected runs cannot share a prefix: %w", ErrNoPrefix)
	}
	return nil
}

// RunToPrefix executes the warm-up: it runs the main thread exactly as Run
// would — the same loop, runMain — and stops immediately BEFORE the first
// OpTxBegin or OpParallel, so the boundary instruction itself is
// re-executed by every fork (and by nobody during capture: stopping after
// it would charge its cycle twice). On
// success the machine's components are MOVED into the returned Prefix and
// the machine is dead; on error the machine is unchanged but should be
// discarded. A program that completes without reaching a boundary returns
// ErrNoPrefix: there is nothing transactional to vary, so sharing has no
// suffix to save.
func (m *Machine) RunToPrefix(ctx context.Context) (*Prefix, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if m.resumed {
		return nil, fmt.Errorf("sim: RunToPrefix on a resumed machine: %w", ErrNoPrefix)
	}
	if m.tracer != nil || m.faults != nil {
		return nil, fmt.Errorf("sim: prefix capture needs an uninstrumented machine: %w", ErrNoPrefix)
	}
	if err := m.startMain(); err != nil {
		return nil, err
	}
	if err := m.runMain(ctx, true); err != nil {
		return nil, err
	}
	if m.mainThread.Done {
		return nil, fmt.Errorf("sim: program finished without transactional work: %w", ErrNoPrefix)
	}
	return m.capturePrefix()
}

// capturePrefix verifies the machine is quiescent at the boundary and moves
// its state into a Prefix. Quiescence is asserted, not assumed: a boundary
// where any controller holds state, any retry policy is armed, or any
// transactional statistic is nonzero would bake prefix-config decisions into
// every fork.
func (m *Machine) capturePrefix() (*Prefix, error) {
	if m.parallel != nil || m.fallbackHolder != nil {
		return nil, fmt.Errorf("sim: prefix boundary inside a parallel region: %w", ErrNoPrefix)
	}
	for _, c := range m.ctxs {
		if !c.ctrl.Quiescent() || c.txActive || c.suspended || c.retries != 0 ||
			c.fallbackNext || c.backoffUntil != 0 {
			return nil, fmt.Errorf("sim: context %d not quiescent at prefix boundary: %w",
				c.id, ErrNoPrefix)
		}
	}
	if m.res.Commits != 0 || m.res.FallbackCommits != 0 || m.res.TotalAborts() != 0 ||
		m.res.TxAccesses() != 0 || m.res.SuspendedAccesses != 0 {
		return nil, fmt.Errorf("sim: transactional statistics nonzero at prefix boundary: %w",
			ErrNoPrefix)
	}

	ctr := snap.Counters{
		Steps:             m.res.Steps,
		CtxCycles:         make([]int64, len(m.ctxs)),
		NonTxAccesses:     m.res.NonTxAccesses,
		PageModeCycles:    m.res.PageModeCycles,
		FallbackAcquires:  m.fallbackAcquires,
		LastProgress:      m.lastProgress,
		LastProgressCycle: m.lastProgressCycle,
	}
	for i, c := range m.ctxs {
		ctr.CtxCycles[i] = c.cycle
	}
	st := &snap.State{
		Mem:      m.memory,
		Alloc:    m.alloc,
		Cache:    m.caches,
		VM:       m.vm,
		Main:     m.mainThread.CaptureState(),
		Counters: ctr,
	}
	p := &Prefix{
		cfg:    m.cfg,
		prog:   m.prog,
		state:  st,
		Steps:  m.res.Steps,
		Cycles: m.ctxs[0].cycle,
	}
	// The machine is consumed: its components now belong to the snapshot.
	m.memory, m.alloc, m.caches, m.vm = nil, nil, nil, nil
	m.mainThread = nil
	m.byThread[m.mainTID()] = nil
	return p, nil
}

// Fork materializes a machine that resumes from the prefix under cfg. The
// forked machine owns deep clones of the captured components plus fresh HTM
// controllers built from cfg; its Run picks up at the boundary instruction
// and produces results byte-identical to a cold run of cfg. Any number of
// forks may be taken, concurrently.
func (p *Prefix) Fork(cfg Config) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := PrefixCompatible(p.cfg, cfg); err != nil {
		return nil, err
	}
	f := p.state.Fork()

	m := &Machine{
		cfg:      cfg,
		prog:     p.prog,
		memory:   f.Mem,
		alloc:    f.Alloc,
		caches:   f.Cache,
		vm:       f.VM,
		byThread: make([]*hwContext, cfg.Contexts()+1),
		res:      newResult(),
		resumed:  true,
	}
	for i := 0; i < cfg.Contexts(); i++ {
		ctrl := htm.NewController(m.newTracker())
		ctrl.SetVersioning(cfg.Versioning)
		m.ctxs = append(m.ctxs, &hwContext{
			id:     i,
			core:   i % cfg.Cores,
			ctrl:   ctrl,
			runIdx: -1,
		})
	}
	for _, c := range m.ctxs {
		for _, o := range m.ctxs {
			if o.core != c.core {
				continue
			}
			c.coreMates = append(c.coreMates, o)
			if o != c {
				c.siblings = append(c.siblings, o)
			}
		}
	}

	m.mainThread = f.Main.NewThread(p.prog)
	m.byThread[m.mainTID()] = m.ctxs[0]
	for i, cyc := range f.Counters.CtxCycles {
		m.ctxs[i].cycle = cyc
	}
	m.res.Steps = f.Counters.Steps
	m.res.StaticSafeAccesses = f.Counters.StaticSafeAccesses
	m.res.DynSafeAccesses = f.Counters.DynSafeAccesses
	m.res.UnsafeTxAccesses = f.Counters.UnsafeTxAccesses
	m.res.NonTxAccesses = f.Counters.NonTxAccesses
	m.res.SuspendedAccesses = f.Counters.SuspendedAccesses
	m.res.PageModeCycles = f.Counters.PageModeCycles
	m.fallbackAcquires = f.Counters.FallbackAcquires
	m.lastProgress = f.Counters.LastProgress
	m.lastProgressCycle = f.Counters.LastProgressCycle
	return m, nil
}

// Forks reports how many machines have been forked from this prefix.
func (p *Prefix) Forks() uint64 { return p.state.Forks() }

// Config returns the configuration the prefix was captured under.
func (p *Prefix) Config() Config { return p.cfg }

// Release returns the snapshot's pooled resources; the prefix must not be
// forked afterwards.
func (p *Prefix) Release() { p.state.Release() }
