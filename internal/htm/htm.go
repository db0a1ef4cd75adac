// Package htm models conventional bounded Hardware Transactional Memory
// controllers with eager (2PL-style) conflict detection, as evaluated in the
// paper: the POWER8-style dedicated transactional buffer (P8), P8 extended
// with PBX hardware signatures for readset overflow (P8S), in-L1 tracking
// (L1TM), and an infinite-capacity upper bound (InfCap).
//
// A Controller holds one hardware context's transactional state: the
// tracking structure (Tracker), the undo log for eager version management,
// and the touched-page set HinTM needs for page-mode aborts. The simulator
// machine drives it: every transactional memory access is offered with its
// HinTM safety hint; hinted-safe accesses skip tracking entirely, which is
// the paper's entire mechanism — the bounded structure holds only unsafe
// state.
package htm

import (
	"fmt"

	"hintm/internal/flat"
)

// AbortReason classifies transaction aborts.
type AbortReason uint8

// Abort reasons.
const (
	AbortNone AbortReason = iota
	// AbortConflict: a true data conflict with another transaction.
	AbortConflict
	// AbortFalseConflict: a signature false positive (P8S only).
	AbortFalseConflict
	// AbortCapacity: the tracking structure overflowed.
	AbortCapacity
	// AbortPageMode: a page this TX touched transitioned safe→unsafe
	// (HinTM dynamic classification).
	AbortPageMode
	// AbortFallbackLock: another thread acquired the fallback lock.
	AbortFallbackLock
	// AbortExplicit: the program requested an abort.
	AbortExplicit
	// AbortSpurious: an injected environmental abort (interrupt, TLB miss)
	// from the fault layer; never generated by the clean machine model.
	AbortSpurious
)

// AbortReasons lists every real abort reason in presentation order; stats
// tables and CLIs iterate it so a new reason shows up everywhere at once.
var AbortReasons = []AbortReason{
	AbortConflict, AbortFalseConflict, AbortCapacity,
	AbortPageMode, AbortFallbackLock, AbortExplicit, AbortSpurious,
}

func (r AbortReason) String() string {
	switch r {
	case AbortNone:
		return "none"
	case AbortConflict:
		return "conflict"
	case AbortFalseConflict:
		return "false-conflict"
	case AbortCapacity:
		return "capacity"
	case AbortPageMode:
		return "page-mode"
	case AbortFallbackLock:
		return "fallback-lock"
	case AbortExplicit:
		return "explicit"
	case AbortSpurious:
		return "spurious"
	}
	return fmt.Sprintf("abort(%d)", uint8(r))
}

// Tracker abstracts the bounded hardware structure that records a
// transaction's read and write sets at cache-block granularity.
type Tracker interface {
	// TrackRead records a read of block; false means capacity overflow.
	TrackRead(block uint64) bool
	// TrackWrite records a write of block; false means capacity overflow.
	TrackWrite(block uint64) bool
	// CheckRemote checks a snooped bus operation against the tracked sets.
	// It returns whether the operation conflicts and whether that conflict
	// is a false positive (signature aliasing).
	CheckRemote(block uint64, remoteWrite bool) (conflict, falsePositive bool)
	// NotifyEviction reports that the local L1 evicted block; false means
	// the tracker lost transactional state (in-L1 tracking).
	NotifyEviction(block uint64) bool
	// ReadSet/WriteSet sizes in blocks (exact, for statistics).
	ReadSetSize() int
	WriteSetSize() int
	// DistinctBlocks is the tracked-entry count: blocks both read and
	// written occupy ONE entry, so this — not readset+writeset — is the
	// capacity-relevant footprint.
	DistinctBlocks() int
	// Reset clears all tracked state.
	Reset()
}

// UndoEntry is one eager-versioning log record.
type UndoEntry struct {
	Addr uint64
	Old  int64
}

// Controller is one hardware context's HTM state machine.
type Controller struct {
	tracker Tracker

	active     bool
	versioning Versioning
	undoLog    []UndoEntry
	// writeBuf holds lazily-versioned stores until commit (VersionLazy).
	writeBuf flat.Tab[int64]
	// touched records every page the running TX accessed (safe accesses
	// included): HinTM's page-mode aborts key off it (paper Table I).
	touched flat.Tab[struct{}]
}

// NewController wraps a tracker.
func NewController(tr Tracker) *Controller {
	c := &Controller{tracker: tr}
	c.touched.Init(64, false)
	c.writeBuf.Init(64, false)
	return c
}

// Active reports whether a transaction is running.
func (c *Controller) Active() bool { return c.active }

// Begin opens a transaction. Panics if one is already open: the interpreter
// guarantees non-nested TXs.
func (c *Controller) Begin() {
	if c.active {
		panic("htm: nested transaction")
	}
	c.active = true
}

// Access offers a transactional memory access with its safety hint. It
// records the touched page, and tracks the block unless hinted safe.
// It returns AbortCapacity when tracking overflows, else AbortNone.
func (c *Controller) Access(block, page uint64, write, safe bool) AbortReason {
	if !c.active {
		return AbortNone
	}
	if _, ok := c.touched.Find(page); !ok {
		c.touched.Add(page, struct{}{})
	}
	if safe {
		return AbortNone
	}
	ok := true
	if write {
		ok = c.tracker.TrackWrite(block)
	} else {
		ok = c.tracker.TrackRead(block)
	}
	if !ok {
		return AbortCapacity
	}
	return AbortNone
}

// RecordUndo logs the pre-image of an unsafe transactional store. Safe
// stores are initializing and deliberately not logged — exactly the
// hardware behaviour HinTM's hint enables.
func (c *Controller) RecordUndo(addr uint64, old int64) {
	if c.active {
		c.undoLog = append(c.undoLog, UndoEntry{Addr: addr, Old: old})
	}
}

// OnRemoteOp processes a snooped bus transaction from another context.
// It returns the abort reason the running TX suffers (AbortNone if none).
func (c *Controller) OnRemoteOp(block uint64, remoteWrite bool) AbortReason {
	if !c.active {
		return AbortNone
	}
	conflict, falsePositive := c.tracker.CheckRemote(block, remoteWrite)
	switch {
	case !conflict:
		return AbortNone
	case falsePositive:
		return AbortFalseConflict
	default:
		return AbortConflict
	}
}

// OnLocalEviction reports an L1 eviction on this context's core; for in-L1
// trackers this can be a capacity (set-conflict) abort.
func (c *Controller) OnLocalEviction(block uint64) AbortReason {
	if !c.active {
		return AbortNone
	}
	if !c.tracker.NotifyEviction(block) {
		return AbortCapacity
	}
	return AbortNone
}

// OnPageModeTransition reports a page turning unsafe; the TX aborts if it
// touched the page.
func (c *Controller) OnPageModeTransition(page uint64) AbortReason {
	if !c.active {
		return AbortNone
	}
	if _, ok := c.touched.Find(page); ok {
		return AbortPageMode
	}
	return AbortNone
}

// TouchedPage reports whether the running TX touched page.
func (c *Controller) TouchedPage(page uint64) bool {
	_, ok := c.touched.Find(page)
	return ok
}

// FootprintBlocks returns the tracked footprint in distinct blocks (the
// capacity-relevant size: a block both read and written occupies one entry).
func (c *Controller) FootprintBlocks() int {
	return c.tracker.DistinctBlocks()
}

// ReadSetSize returns the tracked read set size in blocks.
func (c *Controller) ReadSetSize() int { return c.tracker.ReadSetSize() }

// WriteSetSize returns the tracked write set size in blocks.
func (c *Controller) WriteSetSize() int { return c.tracker.WriteSetSize() }

// Commit closes the transaction, discarding the undo log.
func (c *Controller) Commit() {
	c.clear()
}

// Abort closes the transaction and returns the undo log in reverse
// (application) order; the machine restores memory from it. The returned
// slice aliases the controller's log storage and is valid until the next
// transactional store.
func (c *Controller) Abort() []UndoEntry {
	log := c.undoLog
	// Reverse in place: oldest record must be applied last.
	for i, j := 0, len(log)-1; i < j; i, j = i+1, j-1 {
		log[i], log[j] = log[j], log[i]
	}
	c.clear()
	return log
}

func (c *Controller) clear() {
	c.active = false
	c.undoLog = c.undoLog[:0]
	c.writeBuf.Reset()
	c.tracker.Reset()
	c.touched.Reset()
}
