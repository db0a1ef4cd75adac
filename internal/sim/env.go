package sim

import (
	"fmt"

	"hintm/internal/htm"
	"hintm/internal/interp"
	"hintm/internal/mem"
	"hintm/internal/obs"
	"hintm/internal/vmem"
)

// The Machine implements interp.Env: every architectural side effect of the
// running program funnels through these methods.
var _ interp.Env = (*Machine)(nil)

// Load implements interp.Env.
func (m *Machine) Load(t *interp.Thread, addr mem.Addr, staticSafe bool) (int64, interp.Ctrl) {
	c := m.ctxOf(t)
	if ctrl := m.access(c, t, addr, false, staticSafe); ctrl != interp.CtrlOK {
		return 0, ctrl
	}
	return m.memory.ReadWord(addr), interp.CtrlOK
}

// Store implements interp.Env.
func (m *Machine) Store(t *interp.Thread, addr mem.Addr, val int64, staticSafe bool) interp.Ctrl {
	c := m.ctxOf(t)
	// The safety hint must be resolved before logging: hinted-safe stores
	// skip the undo log (they are initializing). Dynamic classification
	// never marks stores safe, so only the static hint matters here.
	safe := staticSafe && m.cfg.Hints.Static()
	if ctrl := m.access(c, t, addr, true, staticSafe); ctrl != interp.CtrlOK {
		return ctrl
	}
	if c.txActive && !safe {
		c.ctrl.RecordUndo(uint64(addr), m.memory.ReadWord(addr))
	}
	m.memory.WriteWord(addr, val)
	return interp.CtrlOK
}

// access performs the shared translation / coherence / tracking pipeline of
// one memory access. It returns CtrlAbort if the acting context's own TX
// aborted (thread already rolled back).
func (m *Machine) access(c *hwContext, t *interp.Thread, addr mem.Addr, write, staticSafe bool) interp.Ctrl {
	page := addr.Page()
	block := addr.Block()

	if m.tracer != nil {
		m.tracer.Access(c.id, t.ID, addr, write, c.txActive || t.Fallback)
	}

	// 0. Fault layer: an armed spurious abort (interrupt/TLB-miss model)
	// fires before the access takes architectural effect.
	if m.faults != nil && c.txActive && m.faults.SpuriousAbortNow(c.id) {
		if m.ordered {
			m.tracer.Instant(c.id, c.cycle, obs.EvFaultSpurious, uint64(block))
		}
		m.abortTx(c, htm.AbortSpurious)
		return interp.CtrlAbort
	}

	// 1. Translation and dynamic classification (paper §IV-B). Statically
	// safe instructions skip dynamic classification but still translate.
	out := m.vm.Access(c.id, t.ID, page, write)
	c.cycle += out.FaultCycles
	if m.ordered && out.MinorFault {
		m.tracer.Instant(c.id, c.cycle, obs.EvMinorFault, uint64(page))
	}
	if out.Transition != nil {
		if selfAborted := m.pageModeTransition(c, out); selfAborted {
			return interp.CtrlAbort
		}
	}

	useStatic := staticSafe && m.cfg.Hints.Static()
	useDyn := out.Safe && !write && !useStatic
	safe := useStatic || useDyn

	// 2. Access-class accounting (paper Fig. 5), transactional accesses only.
	// A static-safe instruction counts toward the run's StaticHintUses under
	// every hint mode: this branch is the only place the static hint acts.
	if c.txActive || t.Fallback {
		if staticSafe {
			m.facts.StaticHintUses++
		}
		switch {
		case useStatic:
			m.res.StaticSafeAccesses++
		case useDyn:
			m.res.DynSafeAccesses++
		default:
			m.res.UnsafeTxAccesses++
		}
	} else {
		m.res.NonTxAccesses++
	}

	// 3. Cache + coherence.
	res := m.caches.Access(c.core, block, write)
	c.cycle += res.Latency

	// 4. L1 evictions: contexts on this core may lose in-L1 tracked state.
	for _, ev := range res.Evicted {
		if m.ordered {
			m.tracer.Instant(c.id, c.cycle, obs.EvEviction, ev)
		}
		for _, o := range c.coreMates {
			if !o.txActive {
				continue
			}
			if r := o.ctrl.OnLocalEviction(ev); r != htm.AbortNone {
				if o == c {
					m.abortTx(c, r)
					return interp.CtrlAbort
				}
				m.abortTx(o, r)
			}
		}
	}

	// 5. Conflict detection: bus snoops reach contexts on other cores; SMT
	// siblings observe every access through the shared L1.
	if res.BusOp {
		for _, o := range m.ctxs {
			if o.core == c.core || !o.txActive {
				continue
			}
			if r := o.ctrl.OnRemoteOp(block, write); r != htm.AbortNone {
				m.abortTx(o, r)
			}
		}
	}
	for _, o := range c.siblings {
		if !o.txActive {
			continue
		}
		if r := o.ctrl.OnRemoteOp(block, write); r != htm.AbortNone {
			m.abortTx(o, r)
		}
	}

	// 6. Transactional tracking with the safety hint.
	if c.txActive {
		if c.intro != nil {
			c.intro.counts[block]++
			if safe {
				c.intro.skipped[block] = struct{}{}
			}
		}
		// STM baseline: every instrumented (unsafe) access pays the
		// software barrier; hinted-safe accesses elide it — the very
		// optimization HinTM's classification descends from (§II-C).
		if m.cfg.HTM == HTMSTM && !safe {
			if write {
				c.cycle += m.cfg.STMWriteBarrier
			} else {
				c.cycle += m.cfg.STMReadBarrier
			}
		}
		if r := c.ctrl.Access(block, page, write, safe); r != htm.AbortNone {
			m.abortTx(c, r)
			return interp.CtrlAbort
		}
	}
	return interp.CtrlOK
}

// pageModeTransition handles a safe→unsafe page transition: slave shootdown
// charges, conservative aborts of every TX that touched the page (paper
// §III-B), and the Fig.-4b page-mode cost accounting.
func (m *Machine) pageModeTransition(c *hwContext, out vmem.Outcome) (selfAborted bool) {
	tr := out.Transition
	cost := tr.InitiatorCycles
	if m.ordered {
		m.tracer.Instant(c.id, c.cycle, obs.EvPageTransition, tr.Page)
	}
	for _, s := range tr.Slaves {
		sc := m.ctxs[s]
		if m.settle(sc) > 0 {
			sc.aheadFrom += m.vm.SlaveCost() // the charge lands before the rest
			m.settles[1]++
		}
		sc.cycle += m.vm.SlaveCost()
		m.syncEff(sc)
		cost += m.vm.SlaveCost()
		if m.ordered {
			m.tracer.Instant(s, sc.cycle, obs.EvTLBShootdown, tr.Page)
		}
	}
	m.res.PageModeCycles += cost

	for _, o := range m.ctxs {
		if o == c {
			continue
		}
		if r := o.ctrl.OnPageModeTransition(tr.Page); r != htm.AbortNone {
			m.abortTx(o, r)
		}
	}
	if c.ctrl.Active() && c.ctrl.TouchedPage(tr.Page) {
		m.abortTx(c, htm.AbortPageMode)
		return true
	}
	return false
}

// Malloc implements interp.Env.
func (m *Machine) Malloc(t *interp.Thread, size int64) mem.Addr {
	c := m.ctxOf(t)
	c.cycle += 30 // allocator fast-path cost
	return m.alloc.Malloc(t.ID, size)
}

// Free implements interp.Env.
func (m *Machine) Free(t *interp.Thread, addr mem.Addr, size int64) {
	c := m.ctxOf(t)
	c.cycle += 15
	m.alloc.Free(t.ID, addr, size)
}

// StackAlloc implements interp.Env (words → bytes).
func (m *Machine) StackAlloc(t *interp.Thread, words int64) mem.Addr {
	return m.alloc.StackAlloc(t.ID, words*mem.WordSize)
}

// StackRelease implements interp.Env.
func (m *Machine) StackRelease(t *interp.Thread, base mem.Addr) {
	m.alloc.StackRelease(t.ID, base)
}

// TxBegin implements interp.Env: it is re-consulted after every abort, so
// the retry/fallback policy lives here.
func (m *Machine) TxBegin(t *interp.Thread) interp.Ctrl {
	c := m.ctxOf(t)
	if m.fallbackHolder != nil && m.fallbackHolder != c {
		c.cycle += m.cfg.FallbackPollCost
		return interp.CtrlStall
	}
	c.cycle += m.cfg.TxBeginCost
	c.txStart = c.cycle
	if c.fallbackNext {
		// Acquire the global fallback lock; running TXs subscribed to the
		// lock abort (they would otherwise miss our unprotected writes).
		m.fallbackHolder = c
		for _, o := range m.ctxs {
			if o != c && o.ctrl.Active() {
				m.abortTx(o, htm.AbortFallbackLock)
			}
		}
		t.Fallback = true
		m.fallbackAcquires++
	} else {
		t.Capture(m.alloc.StackTop(t.ID))
		c.ctrl.Begin()
		c.txActive = true
		if m.faults != nil {
			m.faults.TxBegun(c.id)
		}
		t.InTx = true
		if c.intro != nil {
			clear(c.intro.counts)
			clear(c.intro.skipped)
		}
	}
	if m.tracer != nil {
		m.tracer.TxBegin(c.id, t.ID, c.cycle, t.Fallback)
	}
	return interp.CtrlOK
}

// TxEnd implements interp.Env.
func (m *Machine) TxEnd(t *interp.Thread) interp.Ctrl {
	c := m.ctxOf(t)
	c.cycle += m.cfg.TxCommitCost
	var span obs.TxAttempt
	if t.Fallback {
		if m.tracer != nil {
			span = m.span(c, obs.OutcomeFallbackCommit, htm.AbortNone, 0)
		}
		m.fallbackHolder = nil
		t.Fallback = false
		c.fallbackNext = false
		m.res.FallbackCommits++
	} else {
		tracked := c.ctrl.FootprintBlocks()
		m.res.TxFootprints.Add(tracked)
		m.facts.MaxTracked = max(m.facts.MaxTracked, tracked)
		if m.tracer != nil {
			span = m.span(c, obs.OutcomeCommit, htm.AbortNone, tracked)
		}
		c.ctrl.Commit()
		c.txActive = false
		t.InTx = false
		m.res.Commits++
	}
	c.retries = 0
	if m.tracer != nil {
		span.End = c.cycle
		m.tracer.TxEnd(span)
	}
	return interp.CtrlOK
}

// Parallel implements interp.Env: the first call forks the workers and
// stalls main; once every worker finishes, the re-executed Parallel
// completes. Page-sharing state resets at region start so that dynamic
// classification tracks the parallel region's sharing behaviour (setup
// writes by main would otherwise poison every page).
func (m *Machine) Parallel(t *interp.Thread, n int64, fn string, args []int64) interp.Ctrl {
	if m.parallel != nil {
		if m.parallel.finished {
			m.parallel = nil
			return interp.CtrlOK
		}
		return interp.CtrlStall
	}
	if n <= 0 || n > int64(len(m.ctxs)) {
		panic(fmt.Sprintf("sim: parallel of %d threads on %d contexts", n, len(m.ctxs)))
	}
	m.vm.ResetSharing()
	body := m.prog.M.Func(fn)
	ps := &parallelState{}
	m.runnable = m.runnable[:0]
	m.effCache = m.effCache[:0]
	for i := int64(0); i < n; i++ {
		tid := int(i)
		base := m.alloc.StackAlloc(tid, body.AllocaWords*mem.WordSize)
		th := m.prog.NewThread(tid, fn, append([]int64{i}, args...), base, m.cfg.Seed)
		ctx := m.ctxs[tid]
		ctx.thread = th
		if ctx.cycle < m.ctxs[0].cycle {
			ctx.cycle = m.ctxs[0].cycle
		}
		m.byThread[tid] = ctx
		m.runnable = append(m.runnable, ctx)
		ctx.runIdx = int32(len(m.runnable) - 1)
		m.effCache = append(m.effCache, ctx.effectiveCycle())
		ps.workers = append(ps.workers, th)
	}
	m.parallel = ps
	return interp.CtrlStall
}

// AbortHint implements interp.Env.
func (m *Machine) AbortHint(t *interp.Thread, cond int64) interp.Ctrl {
	c := m.ctxOf(t)
	if cond != 0 && c.ctrl.Active() {
		m.abortTx(c, htm.AbortExplicit)
		return interp.CtrlAbort
	}
	return interp.CtrlOK
}
