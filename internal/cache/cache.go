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
	"math/bits"
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

// Validate reports whether cfg's geometry is one New can build: set counts
// must be powers of two (a block's set is its low bits) and associativity
// 1..16 (a set's recency word holds one 4-bit way index per way).
func (c Config) Validate() error {
	for _, sets := range [...]int{c.L1Sets, c.L2Sets} {
		if sets <= 0 || sets&(sets-1) != 0 {
			return fmt.Errorf("cache: %d sets is not a power of two", sets)
		}
	}
	for _, ways := range [...]int{c.L1Ways, c.L2Ways} {
		if ways < 1 || ways > maxWays {
			return fmt.Errorf("cache: %d ways is outside 1..%d", ways, maxWays)
		}
	}
	return nil
}

// maxWays is the associativity limit: a set's recency word holds one 4-bit
// way index per way.
const maxWays = 16

// array is a set-associative structure. Each slot is one tag word,
// block<<2 | state, so an Invalid slot has a zero state field. All tags
// live in one flat backing slice — set s occupies tags[s*ways :
// s*ways+used[s]] — so building an array is three allocations regardless
// of geometry (the paper's L2 has 8192 sets; a slice per set made
// machine construction the dominant cost of short simulations).
type array struct {
	tags []uint64
	// used[s] counts the populated slots of set s; slots fill in append
	// order, preserving the set-internal visit order of the per-set-slice
	// representation this replaces.
	used []int32
	// recency[s] lists set s's populated way indices from most to least
	// recently used, one nibble each (nibble 0 = MRU). Nibbles at and past
	// used[s] are meaningless.
	recency []uint64
	// mask is len(used)-1: set counts are powers of two, so a block's set
	// is its low bits.
	mask uint64
	ways int
}

func tag(block uint64, st State) uint64 { return block<<2 | uint64(st) }

// tagPools recycles tag backings by size, because zeroing the L2's backing
// (8192 sets x 16 ways x 8 B) dominates hierarchy construction for short
// runs. A recycled backing holds stale tags, which is safe: no reader ever
// looks past used[s], and used and recency are freshly allocated per array.
var tagPools sync.Map // map[int]*sync.Pool of *[]uint64

func getTags(n int) []uint64 {
	if p, ok := tagPools.Load(n); ok {
		if v := p.(*sync.Pool).Get(); v != nil {
			return *(v.(*[]uint64))
		}
	}
	return make([]uint64, n)
}

func putTags(s []uint64) {
	if s == nil {
		return
	}
	p, ok := tagPools.Load(len(s))
	if !ok {
		p, _ = tagPools.LoadOrStore(len(s), &sync.Pool{})
	}
	p.(*sync.Pool).Put(&s)
}

func newArray(sets, ways int) *array {
	return &array{
		tags:    getTags(sets * ways),
		used:    make([]int32, sets),
		recency: make([]uint64, sets),
		mask:    uint64(sets - 1),
		ways:    ways,
	}
}

func (a *array) setOf(block uint64) int { return int(block & a.mask) }

// set returns the populated portion of block's set.
func (a *array) set(block uint64) []uint64 {
	si := a.setOf(block)
	return a.tags[si*a.ways : si*a.ways+int(a.used[si])]
}

// holds reports whether tag t is a valid copy of block.
func holds(t, block uint64) bool { return t>>2 == block && t&3 != 0 }

// touch makes way the most recently used of set si.
func (a *array) touch(si, way int) {
	r := a.recency[si]
	// Find way's nibble: the lowest zero nibble of r ^ way-in-every-nibble.
	// way occurs exactly once below nibble used[si], and the borrow trick
	// flags false zeros only above a true one, so the lowest flag is way's.
	const ones, highs = 0x1111111111111111, 0x8888888888888888
	x := r ^ uint64(way)*ones
	pos := uint(bits.TrailingZeros64((x-ones)&^x&highs)) / 4 * 4
	below := uint64(1)<<pos - 1
	a.recency[si] = r&^(below|0xF<<pos) | (r&below)<<4 | uint64(way)
}

// find returns the index in a.tags of the slot holding block, or -1. A hit
// makes the slot its set's most recently used.
func (a *array) find(block uint64) int {
	si := a.setOf(block)
	base := si * a.ways
	for i, t := range a.tags[base : base+int(a.used[si])] {
		if holds(t, block) {
			a.touch(si, i)
			return base + i
		}
	}
	return -1
}

// insert places block (replacing the LRU victim if the set is full) and
// returns the evicted block and its state, if any.
func (a *array) insert(block uint64, st State) (evicted uint64, evictedState State, didEvict bool) {
	si := a.setOf(block)
	base, n := si*a.ways, int(a.used[si])
	// Reuse an invalid slot first.
	for i, t := range a.tags[base : base+n] {
		if t&3 == 0 {
			a.tags[base+i] = tag(block, st)
			a.touch(si, i)
			return 0, Invalid, false
		}
	}
	if n < a.ways {
		a.tags[base+n] = tag(block, st)
		a.used[si]++
		a.recency[si] = a.recency[si]<<4 | uint64(n)
		return 0, Invalid, false
	}
	victim := int(a.recency[si] >> (4 * uint(n-1)) & 0xF)
	old := a.tags[base+victim]
	a.tags[base+victim] = tag(block, st)
	a.touch(si, victim)
	return old >> 2, State(old & 3), true
}

// invalidate drops block if present, returning its previous state.
func (a *array) invalidate(block uint64) State {
	si := a.setOf(block)
	base := si * a.ways
	for i, t := range a.tags[base : base+int(a.used[si])] {
		if holds(t, block) {
			a.tags[base+i] = t &^ 3
			return State(t & 3)
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
	h := &Hierarchy{cfg: cfg, l1: make([]*array, cfg.Cores), l2: newArray(cfg.L2Sets, cfg.L2Ways)}
	for i := range h.l1 {
		h.l1[i] = newArray(cfg.L1Sets, cfg.L1Ways)
	}
	return h
}

// Release returns the hierarchy's tag backings to the recycle pool. The
// hierarchy must not be used afterwards. Optional: skipping it only forfeits
// backing reuse for the next hierarchy of the same geometry.
func (h *Hierarchy) Release() {
	putTags(h.l2.tags)
	h.l2.tags = nil
	for _, a := range h.l1 {
		putTags(a.tags)
		a.tags = nil
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
	if i := l1.find(block); i >= 0 {
		if !write {
			h.stats.L1Hits++
			return AccessResult{Latency: h.cfg.L1Latency}
		}
		switch State(l1.tags[i] & 3) {
		case Modified, Exclusive:
			l1.tags[i] |= uint64(Modified)
			h.stats.L1Hits++
			return AccessResult{Latency: h.cfg.L1Latency}
		case Shared:
			// Upgrade: invalidate every other copy via the bus.
			h.invalidateOthers(core, block)
			l1.tags[i] |= uint64(Modified)
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
		} else {
			// The owner downgrades; the line is now clean in L2. find
			// also makes it the owner's most recently used line.
			owner := h.l1[dirtyOwner]
			if i := owner.find(block); i >= 0 {
				owner.tags[i] = tag(block, Shared)
			}
		}
		// The (possibly downgraded) line is now present in L2 as well.
		h.l2.insert(block, Shared)
	default:
		if h.l2.find(block) >= 0 {
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
		for _, t := range l1.set(block) {
			if holds(t, block) {
				held = true
				if State(t&3) == Modified {
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
		for i, t := range set {
			if t == tag(block, Exclusive) {
				set[i] = tag(block, Shared)
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

// StateOf returns core's L1 state for block (Invalid if absent). Exposed
// for tests and diagnostics; unlike an access, it leaves LRU order alone.
func (h *Hierarchy) StateOf(core int, block uint64) State {
	for _, t := range h.l1[core].set(block) {
		if t>>2 == block {
			return State(t & 3)
		}
	}
	return Invalid
}
