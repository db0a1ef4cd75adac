package vmem

import (
	"math/rand"
	"testing"
)

// A clone replayed against the same translation sequence must produce the
// same outcomes (safety, TLB misses, faults, cycles): eviction victims
// depend on the copied TLB recency lists and sharing transitions on the
// copied page table, so this pins the deep copy end to end.
func TestManagerCloneReplaysIdentically(t *testing.T) {
	m := New(4, 4, DefaultCosts(), true)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		ctx := rng.Intn(4)
		m.Access(ctx, ctx, uint64(rng.Intn(16)), rng.Intn(4) == 0)
	}
	c := m.Clone()
	if c.Stats() != m.Stats() {
		t.Fatalf("clone stats %+v != original %+v", c.Stats(), m.Stats())
	}
	for ctx := 0; ctx < 4; ctx++ {
		for pg := uint64(0); pg < 16; pg++ {
			if c.HasTLBEntry(ctx, pg) != m.HasTLBEntry(ctx, pg) {
				t.Fatalf("ctx %d page %d: TLB residency diverged", ctx, pg)
			}
		}
	}

	for i := 0; i < 400; i++ {
		ctx := rng.Intn(4)
		pg, wr := uint64(rng.Intn(16)), rng.Intn(4) == 0
		om := m.Access(ctx, ctx, pg, wr)
		oc := c.Access(ctx, ctx, pg, wr)
		if om != oc {
			t.Fatalf("access %d (ctx %d page %d write %v) diverged: original %+v, clone %+v",
				i, ctx, pg, wr, om, oc)
		}
	}

	// Clone a full 64-entry TLB midway through a stream in which every
	// access evicts, then keep streaming with some reuse: the clone must
	// evict the same victims, so every hit and miss must match.
	m = New(1, 64, DefaultCosts(), true)
	for pg := uint64(0); pg < 137; pg++ {
		m.Access(0, 0, pg%100, false)
	}
	c = m.Clone()
	for i := 0; i < 2000; i++ {
		pg := uint64(137+i) % 100
		if rng.Intn(3) == 0 {
			pg = uint64(rng.Intn(100))
		}
		wr := rng.Intn(8) == 0
		if om, oc := m.Access(0, 0, pg, wr), c.Access(0, 0, pg, wr); om != oc {
			t.Fatalf("full-TLB access %d (page %d write %v) diverged: original %+v, clone %+v",
				i, pg, wr, om, oc)
		}
	}
}

func TestManagerCloneIndependence(t *testing.T) {
	m := New(2, 4, DefaultCosts(), true)
	m.Access(0, 0, 1, false) // page 1: (private, ro) to ctx 0, TLB-resident
	c := m.Clone()

	// A write through the clone upgrades its page mode and invalidates —
	// none of which may leak into the original.
	c.Access(1, 1, 1, true)
	before := m.Stats()
	out := m.Access(0, 0, 1, false)
	if !out.Safe || out.TLBMiss {
		t.Fatalf("original's page state disturbed by clone write: %+v", out)
	}
	_ = before

	// And mutations through the original must not reach the clone: force
	// page 2 unsafe in the original only.
	m.Access(0, 0, 2, false)
	c.Access(0, 0, 2, false)
	m.ForceUnsafe(0, 2)
	if out := c.Access(0, 0, 2, false); !out.Safe {
		t.Fatalf("clone's page went unsafe with the original: %+v", out)
	}
}
