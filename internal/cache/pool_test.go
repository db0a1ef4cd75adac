package cache

import (
	"math/rand"
	"runtime"
	"testing"
)

// The tests in this file pin Release and the tag pools: a hierarchy built
// after another's Release runs on recycled backings that still hold the
// previous hierarchy's tags. Their names are kept from the Clone tests they
// grew out of; a clone's arrays drew from the same pools.

func poolConfig() Config {
	return Config{
		Cores:  2,
		L1Sets: 4, L1Ways: 2,
		L2Sets: 8, L2Ways: 2,
		L1Latency: 3, L2Latency: 12, MemLatency: 100,
	}
}

// drainTagPools empties the tag pools: sync.Pool drops its contents over
// two garbage collections, so the next hierarchy gets fresh backings.
func drainTagPools() {
	runtime.GC()
	runtime.GC()
}

// A hierarchy on recycled backings replayed against an access sequence must
// behave exactly like one on fresh backings: same latencies, same bus ops,
// same evictions, same stats. The stale tags fill every set, so a reader
// that looked past a set's populated prefix would diverge.
func TestHierarchyCloneReplaysIdentically(t *testing.T) {
	drainTagPools()
	fresh := New(poolConfig())
	rng := rand.New(rand.NewSource(7))
	dirty := New(poolConfig())
	for i := 0; i < 200; i++ {
		dirty.Access(rng.Intn(2), uint64(rng.Intn(64)), rng.Intn(3) == 0)
	}
	dirty.Release()
	recycled := New(poolConfig())

	seq := make([][3]int, 300)
	for i := range seq {
		seq[i] = [3]int{rng.Intn(2), rng.Intn(64), rng.Intn(3)}
	}
	for i, s := range seq {
		rf := fresh.Access(s[0], uint64(s[1]), s[2] == 0)
		rr := recycled.Access(s[0], uint64(s[1]), s[2] == 0)
		if rf.Latency != rr.Latency || rf.BusOp != rr.BusOp || len(rf.Evicted) != len(rr.Evicted) {
			t.Fatalf("access %d diverged: fresh %+v, recycled %+v", i, rf, rr)
		}
	}
	if fresh.Stats() != recycled.Stats() {
		t.Fatalf("replayed stats diverged: recycled %+v, fresh %+v", recycled.Stats(), fresh.Stats())
	}
	fresh.Release()
	recycled.Release()
}

// Two live hierarchies share no backing: accesses through one never disturb
// the other, and releasing one, then hammering the hierarchy that inherits
// its backings, leaves the other intact.
func TestHierarchyCloneIndependence(t *testing.T) {
	h := New(poolConfig())
	for b := uint64(0); b < 8; b++ {
		h.Access(0, b, true)
	}
	before := h.Stats()

	other := New(poolConfig())
	for b := uint64(0); b < 64; b++ {
		other.Access(1, b, true)
	}
	if h.Stats() != before {
		t.Fatalf("stats moved with another hierarchy: %+v -> %+v", before, h.Stats())
	}
	// h must still hit its warmed L1 lines (invalidations leaking through
	// would force misses).
	if r := h.Access(0, 3, false); r.Latency != poolConfig().L1Latency {
		t.Fatalf("lost an L1 line to another hierarchy: latency %d", r.Latency)
	}

	other.Release()
	next := New(poolConfig())
	for b := uint64(64); b < 128; b++ {
		next.Access(0, b, true)
		next.Access(1, b, true)
	}
	if r := h.Access(0, 4, false); r.Latency != poolConfig().L1Latency {
		t.Fatalf("broken after another hierarchy's Release: latency %d", r.Latency)
	}
	next.Release()
	h.Release()
}
