// Package flat provides the open-addressed, linear-probe hash table over
// uint64 keys that replaces the Go maps on the simulator's per-access hot
// paths (HTM tracker read/write sets, the controller's touched-page set and
// lazy write buffer, TLB and page-table indexes, the memory page index).
// Probes touch parallel slices instead of chasing map buckets, and Reset is
// O(1): it bumps a generation stamp instead of deleting keys, so the same
// backing arrays are reused across every transaction of a run. Not safe for
// concurrent use — each simulated hardware context owns its tables.
package flat

// Tab is the table. A slot is live iff Gens[i] == Gen. Keys/Vals/Gens are
// exported so callers can iterate live slots directly (statistics, drains);
// mutate only through Add/Del/Reset.
//
// Bounded tables (the P8 buffer, TLBs) are sized at 2× capacity up front and
// never grow — the caller enforces the entry limit, so a free slot always
// terminates a probe. Unbounded tables grow at 3/4 load.
type Tab[V any] struct {
	Keys []uint64
	Vals []V
	Gens []uint32
	// Gen is the current generation stamp; always >= 1 so a zeroed Gens
	// entry is never live and deletion can clear slots with 0.
	Gen     uint32
	mask    uint64
	shift   uint8
	N       int
	bounded bool
}

// fibMul is the 64-bit Fibonacci-hashing multiplier (2^64/phi).
const fibMul = 0x9E3779B97F4A7C15

// Init sizes the table with at least minSlots slots (rounded up to a power
// of two, minimum 16). Bounded tables never grow.
func (t *Tab[V]) Init(minSlots int, bounded bool) {
	size := 16
	for size < minSlots {
		size *= 2
	}
	t.Keys = make([]uint64, size)
	t.Vals = make([]V, size)
	t.Gens = make([]uint32, size)
	t.Gen = 1
	t.mask = uint64(size - 1)
	t.shift = uint8(64 - log2(size))
	t.N = 0
	t.bounded = bounded
}

func log2(size int) int {
	n := 0
	for size > 1 {
		size >>= 1
		n++
	}
	return n
}

// home is the key's preferred slot.
func (t *Tab[V]) home(k uint64) uint64 { return (k * fibMul) >> t.shift }

// Find returns the key's slot index if live, else the index of the free
// slot where it would be inserted.
func (t *Tab[V]) Find(k uint64) (int, bool) {
	i := t.home(k)
	for {
		if t.Gens[i] != t.Gen {
			return int(i), false
		}
		if t.Keys[i] == k {
			return int(i), true
		}
		i = (i + 1) & t.mask
	}
}

// Add inserts a key that must not currently be live and returns its slot.
// Unbounded tables grow (rehash) past 3/4 load before inserting.
func (t *Tab[V]) Add(k uint64, v V) int {
	if !t.bounded && t.N >= len(t.Keys)*3/4 {
		t.grow()
	}
	i, ok := t.Find(k)
	if ok {
		panic("flat: Tab.Add of live key")
	}
	t.Keys[i] = k
	t.Vals[i] = v
	t.Gens[i] = t.Gen
	t.N++
	return i
}

// Del removes a live key using backward-shift deletion, keeping every
// remaining entry reachable without tombstones.
func (t *Tab[V]) Del(k uint64) bool {
	idx, ok := t.Find(k)
	if !ok {
		return false
	}
	t.N--
	i := uint64(idx)
	j := i
	for {
		j = (j + 1) & t.mask
		if t.Gens[j] != t.Gen {
			break
		}
		h := t.home(t.Keys[j])
		// Entry j may fill the hole at i unless its home lies cyclically
		// inside (i, j] — moving it would then break its own probe chain.
		if (j-h)&t.mask >= (j-i)&t.mask {
			t.Keys[i] = t.Keys[j]
			t.Vals[i] = t.Vals[j]
			i = j
		}
	}
	t.Gens[i] = 0
	return true
}

// Reset empties the table in O(1) by bumping the generation stamp; backing
// arrays are kept for reuse.
func (t *Tab[V]) Reset() {
	t.Gen++
	if t.Gen == 0 {
		// Generation counter wrapped (once per ~4G resets): clear stamps so
		// no stale slot can alias the restarted generation.
		for i := range t.Gens {
			t.Gens[i] = 0
		}
		t.Gen = 1
	}
	t.N = 0
}

// grow doubles the table, rehashing live entries.
func (t *Tab[V]) grow() {
	oldKeys, oldVals, oldGens, oldGen := t.Keys, t.Vals, t.Gens, t.Gen
	t.Init(len(oldKeys)*2, t.bounded)
	for i := range oldKeys {
		if oldGens[i] == oldGen {
			t.Add(oldKeys[i], oldVals[i])
		}
	}
}
