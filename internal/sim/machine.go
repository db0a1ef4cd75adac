package sim

import (
	"context"
	"fmt"
	"sort"

	"hintm/internal/cache"
	"hintm/internal/fault"
	"hintm/internal/htm"
	"hintm/internal/interp"
	"hintm/internal/ir"
	"hintm/internal/mem"
	"hintm/internal/obs"
	"hintm/internal/vmem"
)

// hwContext is one hardware context: a core slot (with SMT, two contexts
// share a core, its L1 and — in L1TM — its transactional capacity pressure).
type hwContext struct {
	id, core int

	thread *interp.Thread
	ctrl   *htm.Controller

	// siblings lists the other contexts on the same core (SMT), in context
	// id order: they observe this context's accesses through the shared L1.
	// coreMates is the same list including this context (the eviction
	// audience). Precomputed at New so the per-access snoop loops touch
	// only real siblings instead of scanning every context.
	siblings  []*hwContext
	coreMates []*hwContext

	cycle        int64
	backoffUntil int64
	txStart      int64
	retries      int
	fallbackNext bool
	// runIdx is this context's position in Machine.runnable (and effCache),
	// or -1 outside a parallel region; abortTx and shootdown charges use it
	// to keep the packed clock cache in sync.
	runIdx int32
	// txActive mirrors ctrl.Active() so snoop loops can skip idle contexts
	// with one field load; maintained at TxBegin/commit/abort.
	txActive bool
	// ahead counts the thread-local instructions this context executed past
	// min-clock order (run-ahead, see stepWorkers); the first started at
	// clock aheadFrom and each cost one cycle, so cycle = aheadFrom+ahead.
	// settle splits the run when another context acts on this one.
	aheadFrom, ahead int64

	// intro accumulates per-attempt introspection for the observer (block
	// access counts and the hint-skipped set); nil unless an ordered
	// observer is attached, so the hot path allocates nothing.
	intro *txIntro
}

// txIntro is one attempt's footprint introspection, maintained only while an
// ordered observer is attached.
type txIntro struct {
	// counts maps block → access count for the running attempt.
	counts map[uint64]int
	// skipped holds distinct blocks the safety hints kept out of tracking.
	skipped map[uint64]struct{}
}

func newTxIntro() *txIntro {
	return &txIntro{counts: make(map[uint64]int), skipped: make(map[uint64]struct{})}
}

// top ranks the attempt's most-accessed blocks, highest count first (block
// number breaks ties, keeping traces deterministic despite map order).
func (ti *txIntro) top(n int) []obs.BlockCount {
	out := make([]obs.BlockCount, 0, len(ti.counts))
	for b, c := range ti.counts {
		out = append(out, obs.BlockCount{Block: b, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Block < out[j].Block
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

func (c *hwContext) effectiveCycle() int64 {
	if c.backoffUntil > c.cycle {
		return c.backoffUntil
	}
	return c.cycle
}

// Machine is the assembled simulator.
type Machine struct {
	cfg    Config
	prog   *interp.Program
	memory *mem.Memory
	alloc  *mem.Allocator
	caches *cache.Hierarchy
	vm     *vmem.Manager

	ctxs []*hwContext
	// byThread maps thread ID → hardware context. Thread IDs are dense
	// (workers 0..Contexts-1, main = Contexts), so a slice indexes it.
	byThread []*hwContext

	mainThread *interp.Thread
	parallel   *parallelState
	// runnable holds the worker contexts whose thread has not finished, in
	// context id order (so the min-cycle tie-break stays "lowest id", exactly
	// as a full scan over ctxs would pick). effCache mirrors each runnable
	// context's effectiveCycle in one dense array, so the per-step min-scan
	// reads one cache line instead of chasing every context; every site that
	// moves another context's clock calls syncEff. Maintained by Parallel
	// and stepWorkers; empty outside a parallel region.
	runnable []*hwContext
	effCache []int64

	fallbackHolder *hwContext
	res            *Result
	facts          Facts
	// stepCap is Run's effective MaxSteps; stepWorkers consults it so that
	// batched stepping stops exactly where the single-step loop would.
	stepCap int64

	// tracer is the one observer (nil = none); Observe caches its Ordered
	// in ordered, and "ordered && SampleCycles > 0" in sampling so the
	// per-step check is one load. nextSample is the next sample's cycle.
	tracer            obs.Tracer
	ordered, sampling bool
	nextSample        int64

	// faults is the injection engine (nil unless cfg.Faults is enabled).
	faults *fault.Engine
	// fallbackAcquires counts lock acquisitions; with commits it forms the
	// watchdog's progress signal.
	fallbackAcquires  uint64
	lastProgress      uint64
	lastProgressCycle int64

	// runAhead enables run-ahead scheduling and main-thread batches for this
	// run (batch): off when the run carries an ordered observer, whose
	// events and counter samples read other contexts' clocks mid-run.
	// noRunAhead forces it off (tests compare both schedules).
	runAhead, noRunAhead bool
	// actClock and actID are the (clock, id) scheduling key of the
	// instruction executing now; settle splits run-ahead against it.
	actClock int64
	actID    int
	// bound is the runner-up key stepWorkers batches its pick against; an
	// abort that rewinds a run-ahead lowers it.
	bound int64
	// settles counts the settles that left instructions ahead, by kind
	// (abort rewinds, shootdown charge shifts), for the exactness tests.
	settles [2]uint64
}

// Observe attaches t as the machine's one observer (call once, before Run).
// Whether t is ordered decides, here, all the machine spends on it: an
// ordered sink forces lockstep and gets instants, counter samples and spans
// annotated by the tracker and txIntro; an unordered one keeps run-ahead
// and gets accesses and bare spans only (obs.Unordered).
func (m *Machine) Observe(t obs.Tracer) {
	m.tracer = t
	m.ordered = t != nil && t.Ordered()
	m.sampling = m.ordered && m.cfg.SampleCycles > 0
	if m.ordered {
		for _, c := range m.ctxs {
			c.intro = newTxIntro()
		}
	}
}

// Profiler, TxObserver and SetProfiler are an adapter onto Observe for the
// benchmark module (benchmark/), which compiles against them. OnAccess
// reports every data memory access as obs.Tracer's Access does, less the
// hardware context.
type Profiler interface {
	OnAccess(tid int, addr mem.Addr, write, inTx bool)
}

// TxEventKind classifies transaction lifecycle events for observers.
type TxEventKind uint8

// Transaction lifecycle events.
const (
	TxEventBegin TxEventKind = iota
	TxEventCommit
	TxEventAbort
)

// TxObserver is an optional extension of Profiler: observers implementing it
// also receive the begin and the commit or abort (with its reason, else
// htm.AbortNone) of every hardware transaction attempt, which an access
// recorder needs to delimit transactions; fallback sections deliver none.
type TxObserver interface {
	OnTxEvent(tid int, ev TxEventKind, reason htm.AbortReason)
}

// SetProfiler attaches p (non-nil) as an unordered observer (call before
// Run).
func (m *Machine) SetProfiler(p Profiler) {
	tx, _ := p.(TxObserver)
	m.Observe(&profilerSink{p: p, tx: tx})
}

// profilerSink adapts a Profiler, and a TxObserver when it is one, to
// obs.Tracer.
type profilerSink struct {
	obs.Unordered
	p  Profiler
	tx TxObserver
}

func (s *profilerSink) Access(_, tid int, addr mem.Addr, write, inTx bool) {
	s.p.OnAccess(tid, addr, write, inTx)
}

func (s *profilerSink) TxBegin(_, tid int, _ int64, fallback bool) {
	if s.tx != nil && !fallback {
		s.tx.OnTxEvent(tid, TxEventBegin, htm.AbortNone)
	}
}

func (s *profilerSink) TxEnd(a obs.TxAttempt) {
	if s.tx == nil || a.Fallback {
		return
	}
	ev := TxEventCommit
	if a.Outcome == obs.OutcomeAbort {
		ev = TxEventAbort
	}
	s.tx.OnTxEvent(a.TID, ev, a.Reason) // a commit's reason is htm.AbortNone
}

// ReadGlobal returns word wordIdx of the named global after (or during) a
// run — the way tests and examples inspect a program's final state.
func (m *Machine) ReadGlobal(name string, wordIdx int64) int64 {
	return m.memory.ReadWord(m.prog.GlobalAddr(name) + mem.Addr(wordIdx*mem.WordSize))
}

// Facts returns the run's facts (see Facts); read them after Run.
func (m *Machine) Facts() Facts { return m.facts }

// Release recycles the machine's pooled resources (currently the cache tag
// backings). The machine must not be used afterwards. Optional but worthwhile
// for callers that construct many machines, e.g. experiment sweeps.
func (m *Machine) Release() {
	if m.caches != nil {
		m.caches.Release()
		m.caches = nil
	}
}

type parallelState struct {
	workers  []*interp.Thread
	finished bool
}

// mainTID is the main thread's id, distinct from any worker tid.
func (m *Machine) mainTID() int { return m.cfg.Contexts() }

// New assembles a machine for the given module. The module should already
// have been through the classify pass if static hints are to be honoured
// (running it unconditionally and toggling cfg.Hints keeps execution
// identical across configurations).
func New(cfg Config, mod *ir.Module) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	prog, err := interp.NewProgram(mod)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:      cfg,
		prog:     prog,
		memory:   mem.NewMemory(),
		alloc:    mem.NewAllocator(),
		caches:   cache.New(cfg.Cache),
		vm:       vmem.New(cfg.Contexts(), cfg.TLBEntries, cfg.VM, cfg.Hints.Dynamic()),
		byThread: make([]*hwContext, cfg.Contexts()+1),
		res:      newResult(),
	}
	for i := 0; i < cfg.Contexts(); i++ {
		ctrl := htm.NewController(m.newTracker())
		m.ctxs = append(m.ctxs, &hwContext{
			id: i,
			// Contexts are spread across cores first, so SMT siblings are
			// ctx i and ctx i+Cores.
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
	if cfg.Faults.Enabled() {
		m.faults = fault.NewEngine(cfg.Faults, cfg.Seed, cfg.Contexts())
	}
	return m, nil
}

func (m *Machine) newTracker() *htm.Tracker {
	switch m.cfg.HTM {
	case HTMP8:
		return htm.NewP8Tracker(m.cfg.P8Entries)
	case HTMP8S:
		return htm.NewSigTracker(m.cfg.P8Entries, m.cfg.SigBits, m.cfg.SigHashes)
	case HTML1TM:
		return htm.NewL1Tracker()
	case HTMInfCap, HTMSTM:
		// STM bookkeeping lives in software tables: unbounded, precise.
		return htm.NewInfTracker()
	}
	panic("sim: unknown HTM kind")
}

// ctxCheckMask controls how often Run polls its context: cancellation is
// noticed within 1<<16 simulated instructions, keeping the per-step cost of
// cancellability to one branch on the step counter.
const ctxCheckMask = 1<<16 - 1

// Run executes the program's main function to completion and returns the
// collected statistics. The context is checked periodically (every ~64k
// simulated instructions): cancelling it is the way to stop a runaway
// simulation before the MaxSteps guard trips.
func (m *Machine) Run(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := m.startMain(); err != nil {
		return nil, err
	}
	if err := m.runMain(ctx); err != nil {
		return nil, err
	}

	m.res.Cycles = 0
	for _, c := range m.ctxs {
		if c.cycle > m.res.Cycles {
			m.res.Cycles = c.cycle
		}
	}
	m.res.Cache = m.caches.Stats()
	m.res.VM = m.vm.Stats()
	return m.res, nil
}

// startMain lays out the globals and creates the main thread on context 0.
// Context 0's thread is main whenever no parallel region runs, so a
// transaction of main aborts and restores like any worker's.
func (m *Machine) startMain() error {
	mainFn := m.prog.M.Func("main")
	if mainFn == nil {
		return fmt.Errorf("sim: module has no main")
	}
	m.prog.LayoutGlobals(m.alloc, m.memory)
	mtid := m.mainTID()
	base := m.alloc.StackAlloc(mtid, mainFn.AllocaWords*mem.WordSize)
	m.mainThread = m.prog.NewThread(mtid, "main", nil, base, m.cfg.Seed)
	m.byThread[mtid] = m.ctxs[0]
	m.ctxs[0].thread = m.mainThread
	return nil
}

// runMain runs the main thread, and the workers of its parallel regions,
// until main finishes. Main runs in batches up to the guard grid like a
// worker pick, committed at once: no other context runs while main does.
func (m *Machine) runMain(ctx context.Context) error {
	maxSteps := m.cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 2_000_000_000
	}
	m.stepCap = maxSteps
	m.runAhead = !m.noRunAhead && !m.ordered

	for !m.mainThread.Done {
		if m.res.Steps&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("sim: cancelled after %d steps: %w", m.res.Steps, err)
			}
		}
		if m.res.Steps >= m.stepCap {
			// Steps counts run-ahead instructions a later abort may still
			// roll back; only committed steps trip the cap. Past it, step
			// singly (no run-ahead) and re-check after every step.
			if m.res.Steps-m.aheadSteps() >= maxSteps {
				return fmt.Errorf("sim: exceeded %d steps (livelock?)", maxSteps)
			}
			m.stepCap = m.res.Steps + 1
		}
		if m.res.Steps&guardMask == 0 {
			if err := m.checkGuards(); err != nil {
				return err
			}
		}
		if m.parallel != nil && !m.parallel.finished {
			m.stepWorkers()
			continue
		}
		m.stepThread(m.ctxs[0], m.mainThread, m.batch())
		m.ctxs[0].ahead = 0
	}
	return nil
}

// stepWorkers advances runnable worker contexts, always stepping the one
// with the smallest clock (ties to the lowest context id). It runs until the
// next guard-grid boundary (or the step cap, or the region's barrier), so
// Run's periodic checks fire at exactly the steps they would under
// single-stepping while the scheduler stays out of the per-step call path.
//
// With run-ahead on, each instruction the pick executes as the scheduler's
// choice is followed by its thread-local instructions (stepThread), even
// past the runner-up's clock: they touch nothing another context can observe, so
// the global order of shared-state instructions is unchanged. Only aborts
// and shootdown charges act on another context; both settle it first.
func (m *Machine) stepWorkers() {
	for {
		if len(m.runnable) == 0 {
			// All workers finished: barrier completes; main resumes at the
			// latest worker clock. Nothing can act on a finished worker's
			// run-ahead any more, so all of it is committed.
			var max int64
			for _, c := range m.ctxs {
				c.ahead = 0
				if c.cycle > max {
					max = c.cycle
				}
			}
			if m.ctxs[0].cycle < max {
				m.ctxs[0].cycle = max
			}
			m.ctxs[0].thread = m.mainThread
			m.parallel.finished = true
			return
		}
		pickIdx := 0
		best := m.effCache[0]
		// best2 is the runner-up clock: every other runnable context sits at
		// or above it, and clocks only move forward, so pick stays the unique
		// minimum for as long as it remains strictly below best2.
		// The scan has no data-dependent branches (min, max and a conditional
		// move): lockstep clocks made them unpredictable.
		best2 := int64(1<<63 - 1)
		for i := 1; i < len(m.effCache); i++ {
			e := m.effCache[i]
			best2 = min(best2, max(best, e))
			if e < best {
				pickIdx = i
			}
			best = min(best, e)
		}
		m.bound = best2
		for {
			pick := m.runnable[pickIdx]
			m.stepThread(pick, pick.thread, m.batch())
			e := pick.effectiveCycle()
			m.effCache[pickIdx] = e
			// Keep stepping pick while it is provably still the scheduler's
			// choice.
			for !pick.thread.Done &&
				m.res.Steps&guardMask != 0 &&
				m.res.Steps < m.stepCap &&
				e < m.bound {
				m.stepThread(pick, pick.thread, m.batch())
				e = pick.effectiveCycle()
				m.effCache[pickIdx] = e
			}
			if pick.thread.Done {
				pick.runIdx = -1
				m.runnable = append(m.runnable[:pickIdx], m.runnable[pickIdx+1:]...)
				m.effCache = append(m.effCache[:pickIdx], m.effCache[pickIdx+1:]...)
				for i := pickIdx; i < len(m.runnable); i++ {
					m.runnable[i].runIdx = int32(i)
				}
				break
			}
			if m.res.Steps&guardMask == 0 || m.res.Steps >= m.stepCap {
				return
			}
			// Tie continuation: every entry left of pickIdx exceeded best at
			// scan time, pick just moved past it, and clocks never move
			// below best (an abort's rewind stops at the acting
			// instruction's key, and a lower-id context commits that clock)
			// — so the next entry still equal to best (lockstep workloads
			// keep whole tie groups at one clock) is the lowest-id minimum,
			// i.e. exactly the context a fresh scan would choose.
			if m.bound != best {
				break // no entry can equal best: all others sit at >= bound
			}
			j := pickIdx + 1
			for j < len(m.effCache) && m.effCache[j] != best {
				j++
			}
			if j == len(m.effCache) {
				break // tie group exhausted: full rescan
			}
			pickIdx = j
			m.bound = best // a tied peer exists, so no batch for this pick
		}
		if m.res.Steps&guardMask == 0 || m.res.Steps >= m.stepCap {
			return
		}
	}
}

// syncEff refreshes c's entry in the packed clock cache after a mutation of
// its clock by another context (abort charges, TLB-shootdown slave costs).
func (m *Machine) syncEff(c *hwContext) {
	if c.runIdx >= 0 {
		m.effCache[c.runIdx] = c.effectiveCycle()
	}
}

// settle splits c's run-ahead against the acting instruction's key
// (actClock, actID): the instructions that start before it in (clock, id)
// order would have executed first under min-clock order, so they are
// committed; the rest stay ahead. It returns how many remain ahead.
func (m *Machine) settle(c *hwContext) int64 {
	if c.ahead == 0 {
		return 0
	}
	done := m.actClock - c.aheadFrom
	if c.id < m.actID {
		done++ // c wins the tie at actClock
	}
	if done >= c.ahead {
		c.ahead = 0
		return 0
	}
	if done > 0 {
		c.aheadFrom += done
		c.ahead -= done
	}
	return c.ahead
}

// aheadSteps is the number of executed instructions that are still ahead:
// an abort may yet roll them back.
func (m *Machine) aheadSteps() int64 {
	var n int64
	for _, c := range m.ctxs {
		n += c.ahead
	}
	return n
}

// committedCycle is c's clock without its run-ahead, the time every guard
// sees: a run-ahead clock may still be rolled back.
func (c *hwContext) committedCycle() int64 {
	if c.ahead > 0 {
		return c.aheadFrom
	}
	return c.cycle
}

// batch is how many instructions the next pick may execute: with
// run-ahead, up to the next guard-grid boundary, capped by the step cap;
// without, one.
func (m *Machine) batch() int {
	if !m.runAhead {
		return 1
	}
	return int(min((m.res.Steps|guardMask)+1, m.stepCap) - m.res.Steps)
}

// stepThread executes c's next instruction as the scheduler's choice, then
// up to max-1 of the thread-local instructions that follow (interp.Exec),
// recorded as run ahead for settle to split. c's earlier run-ahead started
// before its current clock, which is now the minimum key: none of it can be
// rolled back any more, so it is committed first.
func (m *Machine) stepThread(c *hwContext, t *interp.Thread, max int) {
	if c.backoffUntil > c.cycle {
		c.cycle = c.backoffUntil
	}
	m.actClock, m.actID = c.cycle, c.id
	c.ahead = 0
	n, _ := m.prog.Exec(m, t, max)
	c.cycle++ // base instruction cost
	m.res.Steps++
	if m.sampling && c.cycle >= m.nextSample {
		m.sample(c.cycle)
	}
	ahead := int64(n - 1)
	c.aheadFrom, c.ahead = c.cycle, ahead
	c.cycle += ahead
	m.res.Steps += ahead
}

// sample emits one periodic counter snapshot and schedules the next one on
// the sample grid, so a long-running instruction advances past several
// periods without emitting a burst.
func (m *Machine) sample(now int64) {
	s := obs.CounterSample{
		Cycle:           now,
		Steps:           m.res.Steps,
		Commits:         m.res.Commits,
		FallbackCommits: m.res.FallbackCommits,
	}
	for r, n := range m.res.Aborts {
		if int(r) < len(s.Aborts) {
			s.Aborts[r] = n
		}
	}
	cs := m.caches.Stats()
	s.L1Hits, s.L1Misses, s.BusOps = cs.L1Hits, cs.L1Misses, cs.BusOps
	vs := m.vm.Stats()
	s.TLBMisses, s.PageTransitions = vs.TLBMisses, vs.Transitions
	m.tracer.Sample(s)
	step := m.cfg.SampleCycles
	m.nextSample = now - now%step + step
}

// span records how c's attempt ends; the caller sets End and emits it. For
// an ordered observer a hardware attempt's span carries the tracker's state
// and the hint-skipped blocks, so it must be taken before Commit() or
// Abort() resets the tracker; a capacity abort names what overflowed.
func (m *Machine) span(c *hwContext, outcome obs.Outcome, reason htm.AbortReason, tracked int) obs.TxAttempt {
	a := obs.TxAttempt{Ctx: c.id, TID: c.thread.ID, Start: c.txStart, Outcome: outcome, Reason: reason,
		Fallback: outcome == obs.OutcomeFallbackCommit}
	if c.intro == nil || a.Fallback {
		return a
	}
	a.ReadSet, a.WriteSet, a.Tracked = c.ctrl.ReadSetSize(), c.ctrl.WriteSetSize(), tracked
	a.SafeSkipped = len(c.intro.skipped)
	if reason == htm.AbortCapacity {
		a.Overflow = &obs.Overflow{
			Structure: c.ctrl.OverflowStructure(),
			Tracked:   tracked,
			Skipped:   a.SafeSkipped,
			Top:       c.intro.top(8),
		}
	}
	return a
}

// ctxOf maps a thread to its hardware context.
func (m *Machine) ctxOf(t *interp.Thread) *hwContext {
	c := m.byThread[t.ID]
	if c == nil {
		panic(fmt.Sprintf("sim: unmapped thread %d", t.ID))
	}
	return c
}

// abortTx aborts the context's running transaction: memory is restored from
// the undo log, the thread rolls back to its TxBegin checkpoint, statistics
// and the retry policy are updated.
func (m *Machine) abortTx(c *hwContext, reason htm.AbortReason) {
	// The part of another context's run-ahead that starts after the acting
	// instruction never ran under min-clock order: un-count it. Its register
	// effects are discarded by the checkpoint restore below.
	if rest := m.settle(c); rest > 0 {
		c.cycle -= rest
		m.res.Steps -= rest
		c.ahead = 0
		m.settles[0]++
		if c.cycle < m.bound {
			m.bound = c.cycle // the batch's runner-up moved back
		}
	}
	tracked := c.ctrl.FootprintBlocks()
	m.facts.MaxTracked = max(m.facts.MaxTracked, tracked)
	var span obs.TxAttempt
	if m.tracer != nil {
		span = m.span(c, obs.OutcomeAbort, reason, tracked)
	}
	undo := c.ctrl.Abort()
	c.txActive = false
	for _, e := range undo {
		m.memory.WriteWord(mem.Addr(e.Addr), e.Old)
	}
	c.cycle += m.cfg.AbortFixedCost + int64(len(undo))*m.cfg.Cache.L1Latency

	cp := c.thread.Restore()
	m.alloc.StackRelease(c.thread.ID, cp.StackTop)
	if m.tracer != nil {
		span.End = c.cycle
		m.tracer.TxEnd(span)
	}

	m.res.Aborts[reason]++
	if lost := c.cycle - c.txStart; lost > 0 {
		m.res.CyclesLost[reason] += lost
	}

	switch reason {
	case htm.AbortCapacity:
		// Retrying a capacity abort is futile (paper §I): fall back — unless
		// CapacityRetries grants retries to test that futility.
		c.retries++
		if c.retries > m.cfg.CapacityRetries {
			c.fallbackNext = true
		} else {
			c.backoffUntil = c.cycle + m.cfg.BackoffBase
		}
	case htm.AbortConflict, htm.AbortFalseConflict, htm.AbortExplicit, htm.AbortSpurious:
		// Spurious (injected) aborts share the conflict policy: bounded
		// backed-off retries, then the fallback lock — so injection can
		// never livelock a run by itself.
		c.retries++
		if c.retries > m.cfg.MaxConflictRetries {
			c.fallbackNext = true
		} else {
			c.backoffUntil = c.cycle + m.cfg.BackoffBase<<uint(c.retries)
		}
	case htm.AbortPageMode:
		// The page is unsafe (tracked) on retry; retry immediately.
	case htm.AbortFallbackLock:
		// The thread will stall at TxBegin until the lock is free.
	}
	m.syncEff(c)
}
