package vmem

import (
	"testing"
	"testing/quick"
)

func mgr(enabled bool) *Manager {
	return New(4, 8, DefaultCosts(), enabled)
}

func TestFirstReadMakesPrivateROSafe(t *testing.T) {
	m := mgr(true)
	out := m.Access(0, 0, 100, false)
	if !out.Safe {
		t.Fatal("first private read should be safe")
	}
	if !out.TLBMiss {
		t.Fatal("first access must miss TLB")
	}
	if mode, tid := m.PageMode(100); mode != PrivateRO || tid != 0 {
		t.Fatalf("page mode %v/%d", mode, tid)
	}
}

func TestFirstWriteMakesPrivateRW(t *testing.T) {
	m := mgr(true)
	out := m.Access(0, 0, 100, true)
	if out.Safe {
		t.Fatal("writes are never dynamically safe")
	}
	if mode, _ := m.PageMode(100); mode != PrivateRW {
		t.Fatalf("mode %v", mode)
	}
	// Subsequent reads by the owner are safe.
	if !m.Access(0, 0, 100, false).Safe {
		t.Fatal("owner read of private-rw page should be safe")
	}
}

func TestMinorFaultOnOwnUpgrade(t *testing.T) {
	m := mgr(true)
	m.Access(0, 0, 100, false) // private-ro
	out := m.Access(0, 0, 100, true)
	if out.FaultCycles < DefaultCosts().MinorFault {
		t.Fatalf("minor fault cycles = %d", out.FaultCycles)
	}
	if out.Transition != nil {
		t.Fatal("own upgrade must not be a page-mode transition")
	}
	if mode, _ := m.PageMode(100); mode != PrivateRW {
		t.Fatalf("mode %v", mode)
	}
	if m.Stats().MinorFaults != 1 {
		t.Fatalf("minor fault count %d", m.Stats().MinorFaults)
	}
}

func TestSecondReaderSharesReadOnly(t *testing.T) {
	m := mgr(true)
	m.Access(0, 0, 100, false)
	out := m.Access(1, 1, 100, false)
	if !out.Safe {
		t.Fatal("shared-ro read should be safe")
	}
	if out.Transition != nil {
		t.Fatal("ro sharing is not a transition")
	}
	if mode, _ := m.PageMode(100); mode != SharedRO {
		t.Fatalf("mode %v", mode)
	}
}

func TestWriteToSharedROTransitions(t *testing.T) {
	m := mgr(true)
	m.Access(0, 0, 100, false)
	m.Access(1, 1, 100, false) // shared-ro; both TLBs hold it
	out := m.Access(1, 1, 100, true)
	if out.Transition == nil {
		t.Fatal("expected safe→unsafe transition")
	}
	if len(out.Transition.Slaves) != 1 || out.Transition.Slaves[0] != 0 {
		t.Fatalf("slaves = %v, want [0]", out.Transition.Slaves)
	}
	if out.FaultCycles < DefaultCosts().ShootdownInitiator {
		t.Fatalf("initiator cycles = %d", out.FaultCycles)
	}
	if m.tlbs[0].has(100) {
		t.Fatal("slave TLB entry not shot down")
	}
	if mode, _ := m.PageMode(100); mode != SharedRW {
		t.Fatalf("mode %v", mode)
	}
	// Afterwards everything is unsafe and stable.
	if m.Access(0, 0, 100, false).Safe {
		t.Fatal("shared-rw read must be unsafe")
	}
	if m.Access(2, 2, 100, true).Transition != nil {
		t.Fatal("shared-rw is absorbing; no second transition")
	}
	if m.Stats().Transitions != 1 {
		t.Fatalf("transitions = %d", m.Stats().Transitions)
	}
}

func TestSecondThreadWritePrivatePageTransitions(t *testing.T) {
	m := mgr(true)
	m.Access(0, 0, 100, true) // private-rw owned by 0
	out := m.Access(1, 1, 100, false)
	if out.Transition == nil {
		t.Fatal("foreign access to private-rw page must transition")
	}
	if out.Safe {
		t.Fatal("the transitioning access is itself unsafe")
	}
}

func TestPrivateROForeignWriteTransitions(t *testing.T) {
	m := mgr(true)
	m.Access(0, 0, 100, false) // private-ro(0)
	out := m.Access(1, 1, 100, true)
	if out.Transition == nil {
		t.Fatal("foreign write to private-ro page must transition")
	}
}

func TestTLBHitAvoidsWalk(t *testing.T) {
	m := mgr(true)
	m.Access(0, 0, 100, false)
	out := m.Access(0, 0, 100, false)
	if out.TLBMiss {
		t.Fatal("second access should hit TLB")
	}
	if !out.Safe {
		t.Fatal("TLB-derived safety lost")
	}
}

func TestTLBWriteHitOnROModeWalks(t *testing.T) {
	// Cached private-ro + write must take the fault path even on a TLB hit.
	m := mgr(true)
	m.Access(0, 0, 100, false)
	out := m.Access(0, 0, 100, true)
	if out.FaultCycles < DefaultCosts().MinorFault {
		t.Fatal("write to cached ro entry must fault")
	}
}

func TestTLBEvictionLRU(t *testing.T) {
	m := New(1, 2, DefaultCosts(), true)
	m.Access(0, 0, 1, false)
	m.Access(0, 0, 2, false)
	m.Access(0, 0, 1, false) // touch 1; 2 becomes LRU
	m.Access(0, 0, 3, false) // evicts 2
	if m.tlbs[0].has(2) {
		t.Fatal("LRU entry not evicted")
	}
	if !m.tlbs[0].has(1) || !m.tlbs[0].has(3) {
		t.Fatal("wrong entries resident")
	}
	out := m.Access(0, 0, 2, false)
	if !out.TLBMiss {
		t.Fatal("evicted page must re-miss")
	}
}

func TestDisabledManagerNeverSafe(t *testing.T) {
	m := mgr(false)
	out := m.Access(0, 0, 100, false)
	if out.Safe {
		t.Fatal("disabled manager derived safety")
	}
	if !out.TLBMiss {
		t.Fatal("TLB modelling should stay active when disabled")
	}
	out = m.Access(1, 1, 100, true)
	if out.Transition != nil || out.FaultCycles > DefaultCosts().TLBMiss {
		t.Fatal("disabled manager must not track sharing")
	}
	if m.Enabled() {
		t.Fatal("Enabled() lies")
	}
}

func TestStatsSafeAccessCount(t *testing.T) {
	m := mgr(true)
	m.Access(0, 0, 1, false)
	m.Access(0, 0, 1, false)
	m.Access(0, 0, 2, true)
	if got := m.Stats().SafeAccesses; got != 2 {
		t.Fatalf("safe accesses = %d, want 2", got)
	}
}

func TestModeStrings(t *testing.T) {
	for _, mo := range []Mode{Untouched, PrivateRO, PrivateRW, SharedRO, SharedRW} {
		if mo.String() == "" {
			t.Error("empty mode name")
		}
	}
}

func TestTransitionChainPrivateROToSharedROToSharedRW(t *testing.T) {
	// Full Fig.-2 path with three threads.
	m := mgr(true)
	m.Access(0, 0, 5, false) // private-ro(0)
	m.Access(1, 1, 5, false) // shared-ro
	m.Access(2, 2, 5, false) // still shared-ro, three TLBs hold it
	out := m.Access(0, 0, 5, true)
	if out.Transition == nil {
		t.Fatal("expected transition")
	}
	if len(out.Transition.Slaves) != 2 {
		t.Fatalf("slaves = %v, want two", out.Transition.Slaves)
	}
}

// TestStateMachineAbsorbingProperty: random access sequences never make a
// page safe again after it reaches shared-rw, and writes are never safe.
func TestStateMachineAbsorbingProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		m := New(4, 8, DefaultCosts(), true)
		poisoned := map[uint64]bool{}
		for _, op := range ops {
			ctx := int(op % 4)
			page := uint64((op / 4) % 8)
			write := op&0x8000 != 0
			out := m.Access(ctx, ctx, page, write)
			if write && out.Safe {
				return false // dynamic classification never marks writes
			}
			if poisoned[page] && out.Safe {
				return false // shared-rw is absorbing
			}
			if mode, _ := m.PageMode(page); mode == SharedRW {
				poisoned[page] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestTransitionAtMostOncePerPage: the paper's "each page may transition at
// most once" invariant.
func TestTransitionAtMostOncePerPage(t *testing.T) {
	f := func(ops []uint16) bool {
		m := New(4, 8, DefaultCosts(), true)
		transitions := map[uint64]int{}
		for _, op := range ops {
			ctx := int(op % 4)
			page := uint64((op / 4) % 8)
			write := op&0x8000 != 0
			out := m.Access(ctx, ctx, page, write)
			if out.Transition != nil {
				transitions[out.Transition.Page]++
				if transitions[out.Transition.Page] > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
