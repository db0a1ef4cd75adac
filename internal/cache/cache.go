// Package cache models the simulated machine's memory hierarchy: per-core
// private L1 data caches and a shared L2, kept coherent with a snoopy MESI
// protocol over a logical bus (paper Table II). The model is a timing and
// event model: data values live in internal/mem; the hierarchy decides
// access latencies, generates the bus transactions HTM controllers snoop for
// eager conflict detection, and reports L1 evictions (which matter to HTMs
// that track transactional state in the L1).
package cache

import (
	"fmt"
	"sync"
)

// State is a MESI coherence state.
type State uint8

// MESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// Config sizes the hierarchy. Counts are in cache blocks (64 B).
type Config struct {
	Cores int
	// L1Sets × L1Ways blocks per core (32 KiB 8-way => 64 sets × 8 ways).
	// Set counts must be powers of two.
	L1Sets, L1Ways int
	// L2Sets × L2Ways blocks shared (8 MiB 16-way => 8192 sets × 16 ways).
	L2Sets, L2Ways int
	// Latencies in cycles.
	L1Latency, L2Latency, MemLatency int64
}

// DefaultConfig returns the paper's Table II hierarchy for n cores.
func DefaultConfig(n int) Config {
	return Config{
		Cores:  n,
		L1Sets: 64, L1Ways: 8,
		L2Sets: 8192, L2Ways: 16,
		L1Latency: 3, L2Latency: 12, MemLatency: 100,
	}
}

// Validate reports whether cfg's set counts are powers of two, as New
// requires: a block's set is its low bits.
func (c Config) Validate() error {
	for _, sets := range [...]int{c.L1Sets, c.L2Sets} {
		if sets <= 0 || sets&(sets-1) != 0 {
			return fmt.Errorf("cache: %d sets is not a power of two", sets)
		}
	}
	return nil
}

// line is one cache line's bookkeeping.
type line struct {
	block uint64
	state State
	lru   uint64
}

// array is a set-associative structure. All lines live in one flat backing
// slice — set s occupies lines[s*ways : s*ways+used[s]] — so building an
// array is two allocations regardless of geometry (the paper's L2 has 8192
// sets; a slice per set made machine construction the dominant cost of
// short simulations).
type array struct {
	lines []line
	// used[s] counts the populated slots of set s; slots fill in append
	// order, preserving the set-internal visit order of the per-set-slice
	// representation this replaces.
	used []int32
	// mask is len(used)-1: set counts are powers of two, so a block's set
	// is its low bits.
	mask uint64
	ways int
	tick uint64
}

// linePools recycles line backings by size, because zeroing the L2's backing
// (8192 sets x 16 ways x 24 B) dominates hierarchy construction for short
// runs. A recycled backing holds stale lines, which is safe: no reader ever
// looks past used[s], and used is freshly zeroed per array.
var linePools sync.Map // map[int]*sync.Pool of *[]line

func getLines(n int) []line {
	if p, ok := linePools.Load(n); ok {
		if v := p.(*sync.Pool).Get(); v != nil {
			return *(v.(*[]line))
		}
	}
	return make([]line, n)
}

func putLines(s []line) {
	if s == nil {
		return
	}
	p, ok := linePools.Load(len(s))
	if !ok {
		p, _ = linePools.LoadOrStore(len(s), &sync.Pool{})
	}
	p.(*sync.Pool).Put(&s)
}

func newArray(sets, ways int) *array {
	return &array{
		lines: getLines(sets * ways),
		used:  make([]int32, sets),
		mask:  uint64(sets - 1),
		ways:  ways,
	}
}

func (a *array) setOf(block uint64) int { return int(block & a.mask) }

// set returns the populated portion of block's set.
func (a *array) set(block uint64) []line {
	si := a.setOf(block)
	return a.lines[si*a.ways : si*a.ways+int(a.used[si])]
}

// find returns the line holding block, or nil.
func (a *array) find(block uint64) *line {
	set := a.set(block)
	for i := range set {
		if set[i].block == block && set[i].state != Invalid {
			a.tick++
			set[i].lru = a.tick
			return &set[i]
		}
	}
	return nil
}

// insert places block (replacing the LRU victim if the set is full) and
// returns the evicted block and its state, if any.
func (a *array) insert(block uint64, st State) (evicted uint64, evictedState State, didEvict bool) {
	si := a.setOf(block)
	set := a.lines[si*a.ways : si*a.ways+int(a.used[si])]
	a.tick++
	// Reuse an invalid slot first.
	for i := range set {
		if set[i].state == Invalid {
			set[i] = line{block: block, state: st, lru: a.tick}
			return 0, Invalid, false
		}
	}
	if int(a.used[si]) < a.ways {
		a.lines[si*a.ways+int(a.used[si])] = line{block: block, state: st, lru: a.tick}
		a.used[si]++
		return 0, Invalid, false
	}
	victim := 0
	for i := range set {
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	ev, evSt := set[victim].block, set[victim].state
	set[victim] = line{block: block, state: st, lru: a.tick}
	return ev, evSt, true
}

// invalidate drops block if present, returning its previous state.
func (a *array) invalidate(block uint64) State {
	set := a.set(block)
	for i := range set {
		if set[i].block == block && set[i].state != Invalid {
			st := set[i].state
			set[i].state = Invalid
			return st
		}
	}
	return Invalid
}

// Stats counts hierarchy events.
type Stats struct {
	L1Hits, L1Misses   uint64
	L2Hits, L2Misses   uint64
	BusOps             uint64
	Invalidations      uint64
	CacheToCacheXfers  uint64
	L1Evictions        uint64
	UpgradeTransaction uint64
}

// AccessResult describes one access's outcome.
type AccessResult struct {
	// Latency is the access's cycle cost.
	Latency int64
	// BusOp reports whether the access generated a bus transaction, which
	// every other core's HTM controller snoops.
	BusOp bool
	// Evicted lists blocks this access displaced from the requesting
	// core's L1 (at most one). The slice aliases scratch storage owned by
	// the Hierarchy: consume it before the next Access call.
	Evicted []uint64
}

// Hierarchy is the full multi-core cache system.
type Hierarchy struct {
	cfg   Config
	l1    []*array
	l2    *array
	stats Stats
	// evBuf backs AccessResult.Evicted so the eviction path allocates
	// nothing (an access displaces at most one L1 block).
	evBuf [1]uint64
}

// New builds a hierarchy. It panics on a cfg that fails Validate.
func New(cfg Config) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{cfg: cfg, l2: newArray(cfg.L2Sets, cfg.L2Ways)}
	for i := 0; i < cfg.Cores; i++ {
		h.l1 = append(h.l1, newArray(cfg.L1Sets, cfg.L1Ways))
	}
	return h
}

// Release returns the hierarchy's line backings to the recycle pool. The
// hierarchy must not be used afterwards. Optional: skipping it only forfeits
// backing reuse for the next hierarchy of the same geometry.
func (h *Hierarchy) Release() {
	putLines(h.l2.lines)
	h.l2.lines = nil
	for _, a := range h.l1 {
		putLines(a.lines)
		a.lines = nil
	}
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Stats returns a copy of the event counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// Access performs a read or write of block by core, updating MESI state
// across all caches and returning the latency/event outcome.
func (h *Hierarchy) Access(core int, block uint64, write bool) AccessResult {
	if core < 0 || core >= h.cfg.Cores {
		panic(fmt.Sprintf("cache: core %d out of range", core))
	}
	l1 := h.l1[core]
	if ln := l1.find(block); ln != nil {
		if !write {
			h.stats.L1Hits++
			return AccessResult{Latency: h.cfg.L1Latency}
		}
		switch ln.state {
		case Modified, Exclusive:
			ln.state = Modified
			h.stats.L1Hits++
			return AccessResult{Latency: h.cfg.L1Latency}
		case Shared:
			// Upgrade: invalidate every other copy via the bus.
			h.invalidateOthers(core, block)
			ln.state = Modified
			h.stats.L1Hits++
			h.stats.BusOps++
			h.stats.UpgradeTransaction++
			return AccessResult{Latency: h.cfg.L1Latency, BusOp: true}
		}
	}
	// L1 miss: go to the bus.
	h.stats.L1Misses++
	h.stats.BusOps++
	res := AccessResult{BusOp: true}

	othersHold, dirtyOwner := h.probeOthers(core, block)
	switch {
	case dirtyOwner >= 0:
		// Cache-to-cache transfer from the modified owner.
		res.Latency = h.cfg.L2Latency
		h.stats.CacheToCacheXfers++
		if write {
			h.invalidateOthers(core, block)
			othersHold = false
		} else if ln := h.l1[dirtyOwner].find(block); ln != nil {
			ln.state = Shared // owner downgrades, line now clean in L2
		}
		// The (possibly downgraded) line is now present in L2 as well.
		h.l2.insert(block, Shared)
	default:
		if h.l2.find(block) != nil {
			res.Latency = h.cfg.L2Latency
			h.stats.L2Hits++
		} else {
			res.Latency = h.cfg.MemLatency
			h.stats.L2Misses++
			h.l2.insert(block, Shared)
		}
		switch {
		case write && othersHold:
			h.invalidateOthers(core, block)
			othersHold = false
		case othersHold:
			h.downgradeOthers(core, block)
		}
	}

	st := Shared
	switch {
	case write:
		st = Modified
	case !othersHold && dirtyOwner < 0:
		st = Exclusive
	}
	if ev, _, did := l1.insert(block, st); did {
		h.evBuf[0] = ev
		res.Evicted = h.evBuf[:1]
		h.stats.L1Evictions++
	}
	return res
}

// probeOthers reports whether any other core holds block, and which core (if
// any) holds it Modified (-1 if none).
func (h *Hierarchy) probeOthers(core int, block uint64) (held bool, dirtyOwner int) {
	dirtyOwner = -1
	for c, l1 := range h.l1 {
		if c == core {
			continue
		}
		set := l1.set(block)
		for i := range set {
			if set[i].block == block && set[i].state != Invalid {
				held = true
				if set[i].state == Modified {
					dirtyOwner = c
				}
			}
		}
	}
	return held, dirtyOwner
}

// downgradeOthers moves other cores' Exclusive copies to Shared when a new
// reader joins (Modified copies are handled by the cache-to-cache path).
func (h *Hierarchy) downgradeOthers(core int, block uint64) {
	for c, l1 := range h.l1 {
		if c == core {
			continue
		}
		set := l1.set(block)
		for i := range set {
			if set[i].block == block && set[i].state == Exclusive {
				set[i].state = Shared
			}
		}
	}
}

func (h *Hierarchy) invalidateOthers(core int, block uint64) {
	for c, l1 := range h.l1 {
		if c == core {
			continue
		}
		if st := l1.invalidate(block); st != Invalid {
			h.stats.Invalidations++
			if st == Modified {
				h.l2.insert(block, Shared) // writeback
			}
		}
	}
}

// HasBlock reports whether core's L1 currently holds block (any valid
// state). HTM trackers that keep transactional state in the L1 use it.
func (h *Hierarchy) HasBlock(core int, block uint64) bool {
	return h.l1[core].find(block) != nil
}

// StateOf returns core's L1 state for block (Invalid if absent). Exposed
// for tests and diagnostics.
func (h *Hierarchy) StateOf(core int, block uint64) State {
	set := h.l1[core].set(block)
	for i := range set {
		if set[i].block == block {
			return set[i].state
		}
	}
	return Invalid
}
