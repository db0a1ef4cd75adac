package cache

import (
	"testing"
	"testing/quick"
)

func small() *Hierarchy {
	cfg := DefaultConfig(4)
	return New(cfg)
}

func TestColdMissGoesToMemory(t *testing.T) {
	h := small()
	res := h.Access(0, 100, false)
	if res.Latency != 100 {
		t.Fatalf("cold miss latency = %d, want 100", res.Latency)
	}
	if !res.BusOp {
		t.Fatal("cold miss must be a bus op")
	}
	if h.StateOf(0, 100) != Exclusive {
		t.Fatalf("sole reader should be E, got %v", h.StateOf(0, 100))
	}
}

func TestL1Hit(t *testing.T) {
	h := small()
	h.Access(0, 100, false)
	res := h.Access(0, 100, false)
	if res.Latency != 3 || res.BusOp {
		t.Fatalf("L1 hit: latency=%d busop=%v", res.Latency, res.BusOp)
	}
}

func TestL2HitAfterOtherCoreFetched(t *testing.T) {
	h := small()
	h.Access(0, 100, false) // memory -> L2 + core0 L1
	res := h.Access(1, 100, false)
	if res.Latency != 12 {
		t.Fatalf("L2/shared hit latency = %d, want 12", res.Latency)
	}
	if h.StateOf(0, 100) != Exclusive && h.StateOf(0, 100) != Shared {
		t.Fatalf("core0 state %v", h.StateOf(0, 100))
	}
}

func TestWriteUpgradesAndInvalidates(t *testing.T) {
	h := small()
	h.Access(0, 100, false)
	h.Access(1, 100, false) // both share
	res := h.Access(0, 100, true)
	if !res.BusOp {
		t.Fatal("upgrade must generate a bus op")
	}
	if h.StateOf(0, 100) != Modified {
		t.Fatalf("writer state %v, want M", h.StateOf(0, 100))
	}
	if h.StateOf(1, 100) != Invalid {
		t.Fatalf("sharer state %v, want I", h.StateOf(1, 100))
	}
}

func TestSilentWriteOnExclusive(t *testing.T) {
	h := small()
	h.Access(0, 100, false) // E
	res := h.Access(0, 100, true)
	if res.BusOp {
		t.Fatal("E->M must be silent")
	}
	if h.StateOf(0, 100) != Modified {
		t.Fatalf("state %v, want M", h.StateOf(0, 100))
	}
}

func TestReadOfModifiedDowngrades(t *testing.T) {
	h := small()
	h.Access(0, 100, true) // core0 M
	res := h.Access(1, 100, false)
	if res.Latency != 12 {
		t.Fatalf("c2c latency = %d, want 12", res.Latency)
	}
	if h.StateOf(0, 100) != Shared {
		t.Fatalf("owner state %v, want S", h.StateOf(0, 100))
	}
	if h.StateOf(1, 100) != Shared {
		t.Fatalf("reader state %v, want S", h.StateOf(1, 100))
	}
	if h.Stats().CacheToCacheXfers != 1 {
		t.Fatalf("c2c count %d", h.Stats().CacheToCacheXfers)
	}
}

func TestWriteOfRemoteModifiedInvalidatesOwner(t *testing.T) {
	h := small()
	h.Access(0, 100, true) // core0 M
	h.Access(1, 100, true)
	if h.StateOf(0, 100) != Invalid {
		t.Fatalf("old owner %v, want I", h.StateOf(0, 100))
	}
	if h.StateOf(1, 100) != Modified {
		t.Fatalf("new owner %v, want M", h.StateOf(1, 100))
	}
}

func TestEvictionOnSetOverflow(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.L1Sets, cfg.L1Ways = 2, 2 // 4-block L1
	h := New(cfg)
	// Fill set 0 (blocks ≡ 0 mod 2) beyond capacity.
	h.Access(0, 0, false)
	h.Access(0, 2, false)
	res := h.Access(0, 4, false)
	if len(res.Evicted) != 1 || res.Evicted[0] != 0 {
		t.Fatalf("evicted = %v, want [0] (LRU)", res.Evicted)
	}
	if h.StateOf(0, 2) == Invalid || h.StateOf(0, 4) == Invalid {
		t.Fatal("resident set wrong after eviction")
	}
}

// TestEvictedModifiedLineIsDropped pins the current model of a dirty L1
// victim: it is dropped without a writeback, and L2 lines carry no dirty
// state, so once the L2 has also evicted the block the next reader pays
// the memory latency, as for a block never written. Core 0 writes block 0,
// the L2 evicts it, core 0's L1 evicts it, and core 1 reads it.
func TestEvictedModifiedLineIsDropped(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.L1Sets, cfg.L1Ways = 2, 2 // blocks 0, 2, 4, 6, 8 share L1 set 0
	cfg.L2Sets, cfg.L2Ways = 4, 2 // blocks 0, 4, 8 share L2 set 0
	h := New(cfg)
	h.Access(0, 0, true)
	h.Access(1, 4, false)
	h.Access(1, 8, false) // the L2 evicts block 0
	if st := h.StateOf(0, 0); st != Modified {
		t.Fatalf("core 0 holds block 0 as %v after the L2 eviction, want M", st)
	}
	h.Access(0, 2, false)
	if res := h.Access(0, 6, false); len(res.Evicted) != 1 || res.Evicted[0] != 0 {
		t.Fatalf("core 0's L1 evicted %v, want [0]", res.Evicted)
	}
	if res := h.Access(1, 0, false); res.Latency != cfg.MemLatency {
		t.Errorf("core 1's read of the dropped dirty block: latency %d, want memory's %d", res.Latency, cfg.MemLatency)
	}
}

func TestLRUTouchPreventsEviction(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.L1Sets, cfg.L1Ways = 2, 2
	h := New(cfg)
	h.Access(0, 0, false)
	h.Access(0, 2, false)
	h.Access(0, 0, false) // touch 0: now 2 is LRU
	res := h.Access(0, 4, false)
	if len(res.Evicted) != 1 || res.Evicted[0] != 2 {
		t.Fatalf("evicted = %v, want [2]", res.Evicted)
	}
}

func TestMESISingleWriterInvariant(t *testing.T) {
	// Property: after any access sequence, a Modified line is the only
	// valid copy, and E lines are unique.
	cfg := DefaultConfig(3)
	cfg.L1Sets, cfg.L1Ways = 4, 2
	h := New(cfg)
	f := func(ops []uint16) bool {
		for _, op := range ops {
			core := int(op % 3)
			block := uint64((op / 3) % 16)
			write := op&0x8000 != 0
			h.Access(core, block, write)
			for b := uint64(0); b < 16; b++ {
				var m, valid int
				for c := 0; c < 3; c++ {
					switch h.StateOf(c, b) {
					case Modified, Exclusive:
						m++
						valid++
					case Shared:
						valid++
					}
				}
				if m > 1 || (m == 1 && valid > 1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	h := small()
	h.Access(0, 1, false)
	h.Access(0, 1, false)
	h.Access(1, 1, true)
	s := h.Stats()
	if s.L1Hits != 1 || s.L1Misses != 2 {
		t.Fatalf("hits=%d misses=%d", s.L1Hits, s.L1Misses)
	}
	if s.Invalidations == 0 {
		t.Fatal("expected an invalidation")
	}
	if s.BusOps < 2 {
		t.Fatalf("bus ops = %d", s.BusOps)
	}
}

func TestStateString(t *testing.T) {
	for _, st := range []State{Invalid, Shared, Exclusive, Modified} {
		if st.String() == "?" {
			t.Errorf("state %d has no name", st)
		}
	}
}
