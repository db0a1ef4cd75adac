package sim

import (
	"errors"
	"fmt"
	"strings"

	"hintm/internal/stats"
)

// ErrLivelock is the sentinel every LivelockError matches via errors.Is.
var ErrLivelock = errors.New("sim: livelock watchdog tripped")

// ErrMaxCycles is the sentinel every CycleLimitError matches via errors.Is.
var ErrMaxCycles = errors.New("sim: cycle limit exceeded")

// CoreSnapshot is one hardware context's state at the moment the watchdog
// tripped.
type CoreSnapshot struct {
	Context, Core int
	// Thread is the software thread mapped to the context (-1 when idle).
	Thread int
	// Where locates the thread ("fn/block:pc").
	Where string

	InTx, Fallback bool
	// FallbackNext marks a context that will take the lock at its next
	// TxBegin; HoldsLock marks the current lock holder.
	FallbackNext, HoldsLock bool

	Retries      int
	Cycle        int64
	BackoffUntil int64
	TxStart      int64
}

// LivelockError reports that no transaction committed (in HTM or via the
// fallback lock) and no fallback lock was acquired for WatchdogCycles
// simulated cycles while transactional work was pending. It carries the
// per-context diagnostic state the retry policy was stuck in.
type LivelockError struct {
	WatchdogCycles int64
	// Cycles/Steps locate the trip point; SinceProgress is the stall length.
	Cycles, Steps   int64
	SinceProgress   int64
	Commits         uint64
	FallbackCommits uint64
	Cores           []CoreSnapshot
}

// Is makes errors.Is(err, ErrLivelock) work.
func (e *LivelockError) Is(target error) bool { return target == ErrLivelock }

func (e *LivelockError) Error() string {
	return fmt.Sprintf("sim: no TX progress for %d cycles (watchdog %d; cycle %d, %d commits, %d fallback commits)",
		e.SinceProgress, e.WatchdogCycles, e.Cycles, e.Commits, e.FallbackCommits)
}

// Snapshot renders the per-context diagnostic table.
func (e *LivelockError) Snapshot() string {
	tbl := stats.NewTable("ctx", "core", "thread", "where", "state", "retries", "cycle", "backoff-until", "tx-start")
	for _, c := range e.Cores {
		var st []string
		if c.InTx {
			st = append(st, "in-tx")
		}
		if c.Fallback {
			st = append(st, "fallback")
		}
		if c.FallbackNext {
			st = append(st, "lock-next")
		}
		if c.HoldsLock {
			st = append(st, "holds-lock")
		}
		if len(st) == 0 {
			st = append(st, "idle")
		}
		thread := "-"
		if c.Thread >= 0 {
			thread = fmt.Sprintf("%d", c.Thread)
		}
		tbl.Row(fmt.Sprintf("%d", c.Context), fmt.Sprintf("%d", c.Core), thread, c.Where,
			strings.Join(st, "+"), fmt.Sprintf("%d", c.Retries), fmt.Sprintf("%d", c.Cycle),
			fmt.Sprintf("%d", c.BackoffUntil), fmt.Sprintf("%d", c.TxStart))
	}
	var sb strings.Builder
	tbl.Render(&sb)
	return sb.String()
}

// CycleLimitError reports the simulated clock crossed Config.MaxCycles.
type CycleLimitError struct {
	Limit, Cycles, Steps int64
}

// Is makes errors.Is(err, ErrMaxCycles) work.
func (e *CycleLimitError) Is(target error) bool { return target == ErrMaxCycles }

func (e *CycleLimitError) Error() string {
	return fmt.Sprintf("sim: exceeded cycle limit %d (at cycle %d, step %d)", e.Limit, e.Cycles, e.Steps)
}

// guardMask controls how often Run evaluates the cycle cap and watchdog:
// every 4096 steps, cheap enough to leave both always-on.
const guardMask = 1<<12 - 1

// maxCycle is the furthest committed context clock — the run's current
// simulated time, without run-ahead an abort may still roll back.
func (m *Machine) maxCycle() int64 {
	var max int64
	for _, c := range m.ctxs {
		if cc := c.committedCycle(); cc > max {
			max = cc
		}
	}
	return max
}

// txPending reports whether any transactional work is in flight: a thread
// inside a TX or fallback section, a context committed to taking the lock or
// mid-retry, or the lock held. The watchdog only counts stall time while
// this holds — a long non-transactional phase must not trip it.
func (m *Machine) txPending() bool {
	if m.fallbackHolder != nil {
		return true
	}
	for _, c := range m.ctxs {
		if c.fallbackNext || c.retries > 0 {
			return true
		}
		if c.thread != nil && !c.thread.Done && (c.thread.InTx || c.thread.Fallback) {
			return true
		}
	}
	return false
}

// checkGuards enforces Config.MaxCycles and the livelock watchdog. Progress
// is any HTM commit, fallback commit, or fallback-lock acquisition; the
// watchdog trips when WatchdogCycles of simulated time pass without one
// while transactional work is pending.
func (m *Machine) checkGuards() error {
	now := m.maxCycle()
	if m.cfg.MaxCycles > 0 && now > m.cfg.MaxCycles {
		return &CycleLimitError{Limit: m.cfg.MaxCycles, Cycles: now, Steps: m.res.Steps}
	}
	if m.cfg.WatchdogCycles <= 0 {
		return nil
	}
	progress := m.res.Commits + m.res.FallbackCommits + m.fallbackAcquires
	if progress != m.lastProgress || !m.txPending() {
		m.lastProgress = progress
		m.lastProgressCycle = now
		return nil
	}
	if stall := now - m.lastProgressCycle; stall > m.cfg.WatchdogCycles {
		return m.livelockError(now, stall)
	}
	return nil
}

func (m *Machine) livelockError(now, stall int64) *LivelockError {
	e := &LivelockError{
		WatchdogCycles:  m.cfg.WatchdogCycles,
		Cycles:          now,
		Steps:           m.res.Steps,
		SinceProgress:   stall,
		Commits:         m.res.Commits,
		FallbackCommits: m.res.FallbackCommits,
	}
	for _, c := range m.ctxs {
		s := CoreSnapshot{
			Context:      c.id,
			Core:         c.core,
			Thread:       -1,
			Where:        "-",
			FallbackNext: c.fallbackNext,
			HoldsLock:    m.fallbackHolder == c,
			Retries:      c.retries,
			Cycle:        c.committedCycle(),
			BackoffUntil: c.backoffUntil,
			TxStart:      c.txStart,
		}
		if t := c.thread; t != nil {
			s.Thread = t.ID
			s.Where = t.Where()
			s.InTx = t.InTx
			s.Fallback = t.Fallback
		}
		e.Cores = append(e.Cores, s)
	}
	return e
}
