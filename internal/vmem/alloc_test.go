package vmem

import "testing"

// The TLB-hit path runs once per simulated memory access; after a page's
// entry is cached, repeated accesses must not allocate.
func TestTLBHitDoesNotAllocate(t *testing.T) {
	m := New(4, 8, DefaultCosts(), true)
	m.Access(0, 0, 100, false) // walk + fill
	if n := testing.AllocsPerRun(200, func() {
		m.Access(0, 0, 100, false)
	}); n != 0 {
		t.Errorf("TLB hit allocates %.1f per access", n)
	}
}

// Even TLB misses on already-mapped pages stay allocation-free: page-table
// entries live in the manager's arena and TLB slots are recycled in place.
// Sweeping four times as many mapped pages as entries makes every access
// miss and evict, at a tiny TLB and at the simulator's default 64 entries.
func TestWarmTLBMissDoesNotAllocate(t *testing.T) {
	for _, entries := range []int{2, 64} {
		m := New(1, entries, DefaultCosts(), true)
		sweep := func() {
			for p := uint64(0); p < uint64(4*entries); p++ {
				m.Access(0, 0, p, false)
			}
		}
		sweep()
		if n := testing.AllocsPerRun(100, sweep); n != 0 {
			t.Errorf("%d-entry TLB: warm miss allocates %.1f per sweep", entries, n)
		}
	}
}

// benchTLB cycles over pages mapped pages through a full 64-entry TLB.
func benchTLB(b *testing.B, pages int) {
	m := New(1, 64, DefaultCosts(), true)
	for p := uint64(0); p < uint64(pages); p++ {
		m.Access(0, 0, p, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Access(0, 0, uint64(i%pages), false)
	}
}

// BenchmarkTLBMiss streams over twice as many pages as entries, so every
// access misses and evicts the least recently used entry.
func BenchmarkTLBMiss(b *testing.B) { benchTLB(b, 128) }

// BenchmarkTLBHit cycles over exactly the pages the TLB holds, so every
// access hits its least recently used entry.
func BenchmarkTLBHit(b *testing.B) { benchTLB(b, 64) }
