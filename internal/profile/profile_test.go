package profile

import (
	"testing"

	"hintm/internal/mem"
)

func TestRegionSafety(t *testing.T) {
	cases := []struct {
		name string
		r    regionInfo
		want bool
	}{
		{"untouched-read-only", regionInfo{readers: 0b111}, true},
		{"single-thread-rw", regionInfo{readers: 0b1, writers: 0b1}, true},
		{"single-writer-only", regionInfo{writers: 0b10}, true},
		{"reader-and-writer-differ", regionInfo{readers: 0b1, writers: 0b10}, false},
		{"two-writers", regionInfo{writers: 0b11}, false},
		{"many-readers-one-writer", regionInfo{readers: 0b111, writers: 0b100}, false},
	}
	for _, c := range cases {
		if got := c.r.safe(); got != c.want {
			t.Errorf("%s: safe = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSharingReport(t *testing.T) {
	s := NewSharing(7)
	blk := func(i uint64) mem.Addr { return mem.Addr(i * mem.BlockSize) }

	// Region A (block 0): read-only shared by threads 0,1 — safe.
	s.OnAccess(0, blk(0), false, true)
	s.OnAccess(1, blk(0), false, true)
	// Region B (block 1): thread 0 private RW — safe.
	s.OnAccess(0, blk(1), true, true)
	s.OnAccess(0, blk(1), false, true)
	// Region C (block 2): RW-shared — unsafe.
	s.OnAccess(0, blk(2), false, true)
	s.OnAccess(1, blk(2), true, true)
	// Main thread (tid 8 > max 7) must be ignored.
	s.OnAccess(8, blk(3), true, false)

	rep := s.Report()
	if rep.Blocks != 3 {
		t.Fatalf("blocks = %d, want 3 (main filtered)", rep.Blocks)
	}
	if rep.SafeBlockFrac < 0.66 || rep.SafeBlockFrac > 0.67 {
		t.Fatalf("safe block frac = %f, want 2/3", rep.SafeBlockFrac)
	}
	// 6 TX accesses; safe reads: 2 (A) + 1 (B read) + C read is unsafe.
	if rep.TxAccesses != 6 {
		t.Fatalf("tx accesses = %d", rep.TxAccesses)
	}
	want := 3.0 / 6.0
	if rep.SafeReadFracBlock != want {
		t.Fatalf("safe read frac = %f, want %f", rep.SafeReadFracBlock, want)
	}
}

func TestPageCoarserThanBlock(t *testing.T) {
	s := NewSharing(7)
	// Two blocks on the same page: thread 0 writes block 0, thread 1
	// writes block 70 (different page? no: block 70 is within page 1).
	// Use same-page blocks 0 and 1: block-granular both private-safe,
	// page-granular unsafe (two writers on one page).
	s.OnAccess(0, 0, true, true)
	s.OnAccess(1, mem.BlockSize, true, true)
	rep := s.Report()
	if rep.SafeBlockFrac != 1.0 {
		t.Fatalf("block frac = %f, want 1", rep.SafeBlockFrac)
	}
	if rep.SafePageFrac != 0.0 {
		t.Fatalf("page frac = %f, want 0", rep.SafePageFrac)
	}
	if rep.Pages != 1 || rep.Blocks != 2 {
		t.Fatalf("regions: %d pages %d blocks", rep.Pages, rep.Blocks)
	}
}

func TestNonTxNotCounted(t *testing.T) {
	s := NewSharing(7)
	s.OnAccess(0, 0, false, false)
	rep := s.Report()
	if rep.TxAccesses != 0 || rep.TxReads != 0 {
		t.Fatal("non-TX access counted as transactional")
	}
	if rep.Blocks != 1 {
		t.Fatal("region sharing must still be tracked outside TXs")
	}
}

func TestEmptyReportSafe(t *testing.T) {
	rep := NewSharing(7).Report()
	if rep.SafeBlockFrac != 0 || rep.SafeReadFracPage != 0 {
		t.Fatal("empty profiler should report zeros")
	}
}

// A transactional read is judged by its region's state at the end of the
// run, at each granularity: a later write by another thread makes earlier
// reads of that block, and of every block on its page, unsafe.
func TestSafeReadsJudgedAtRunEnd(t *testing.T) {
	s := NewSharing(7)
	s.OnAccess(0, 0, false, true)
	s.OnAccess(0, mem.BlockSize, false, true)
	s.OnAccess(1, mem.BlockSize, true, true)
	rep := s.Report()
	if rep.TxAccesses != 3 || rep.TxReads != 2 {
		t.Fatalf("tx accesses %d reads %d, want 3 and 2", rep.TxAccesses, rep.TxReads)
	}
	if want := 1.0 / 3.0; rep.SafeReadFracBlock != want {
		t.Fatalf("block safe read frac = %f, want %f", rep.SafeReadFracBlock, want)
	}
	if rep.SafeReadFracPage != 0 {
		t.Fatalf("page safe read frac = %f, want 0", rep.SafeReadFracPage)
	}
}
