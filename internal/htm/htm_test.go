package htm

import (
	"testing"
	"testing/quick"
)

func TestP8CapacityOverflow(t *testing.T) {
	tr := NewP8Tracker(4)
	for b := uint64(0); b < 4; b++ {
		if !tr.TrackRead(b) {
			t.Fatalf("block %d should fit", b)
		}
	}
	if tr.TrackRead(99) {
		t.Fatal("5th distinct block must overflow")
	}
	// Re-touching a resident block is free.
	if !tr.TrackWrite(2) {
		t.Fatal("upgrading a resident entry must not overflow")
	}
	if tr.ReadSetSize() != 4 || tr.WriteSetSize() != 1 {
		t.Fatalf("sets: r=%d w=%d", tr.ReadSetSize(), tr.WriteSetSize())
	}
}

func TestP8ConflictMatrix(t *testing.T) {
	tr := NewP8Tracker(8)
	tr.TrackRead(1)
	tr.TrackWrite(2)
	cases := []struct {
		block       uint64
		remoteWrite bool
		conflict    bool
	}{
		{1, true, true},   // remote write vs read
		{1, false, false}, // remote read vs read: fine
		{2, true, true},   // remote write vs write
		{2, false, true},  // remote read vs write
		{3, true, false},  // untracked
	}
	for _, c := range cases {
		got, fp := tr.CheckRemote(c.block, c.remoteWrite)
		if got != c.conflict || fp {
			t.Errorf("CheckRemote(%d, w=%v) = (%v,%v), want (%v,false)",
				c.block, c.remoteWrite, got, fp, c.conflict)
		}
	}
}

func TestP8ResetAndEviction(t *testing.T) {
	tr := NewP8Tracker(2)
	tr.TrackRead(1)
	if !tr.NotifyEviction(1) {
		t.Fatal("dedicated buffer must survive L1 evictions")
	}
	tr.Reset()
	if tr.ReadSetSize() != 0 {
		t.Fatal("reset did not clear")
	}
	if !tr.TrackRead(5) || !tr.TrackRead(6) {
		t.Fatal("capacity not restored after reset")
	}
}

func TestSigTrackerUnboundedReads(t *testing.T) {
	tr := NewSigTracker(4, 1024, 2)
	for b := uint64(0); b < 100; b++ {
		if !tr.TrackRead(b) {
			t.Fatalf("read of block %d overflowed despite signature", b)
		}
	}
	if tr.ReadSetSize() != 100 {
		t.Fatalf("readset size %d, want 100", tr.ReadSetSize())
	}
	// A write to a buffer full of reads spills one read into the signature.
	if !tr.TrackWrite(200) {
		t.Fatal("write should displace a read entry into the signature")
	}
	// But a buffer full of writes is a hard bound.
	for b := uint64(300); b < 304; b++ {
		tr.TrackWrite(b)
	}
	if tr.TrackWrite(400) {
		t.Fatal("write-full buffer must overflow")
	}
	if tr.WriteSetSize() != 4 {
		t.Fatalf("writeset size %d, want 4", tr.WriteSetSize())
	}
}

func TestSigTrackerDetectsOverflowedReadConflicts(t *testing.T) {
	tr := NewSigTracker(2, 4096, 2)
	for b := uint64(0); b < 50; b++ {
		tr.TrackRead(b)
	}
	// Block 40 overflowed into the signature; a remote write must conflict
	// and be classified as a true conflict.
	conflict, fp := tr.CheckRemote(40, true)
	if !conflict || fp {
		t.Fatalf("overflowed-read conflict = (%v,%v), want (true,false)", conflict, fp)
	}
	// Remote reads never hit the signature.
	if c, _ := tr.CheckRemote(40, false); c {
		t.Fatal("remote read must not conflict with readset")
	}
}

func TestSigTrackerFalsePositive(t *testing.T) {
	// A tiny signature with many inserts will alias. Find an address not
	// inserted that still tests positive.
	tr := NewSigTracker(1, 64, 2)
	for b := uint64(0); b < 64; b++ {
		tr.TrackRead(b)
	}
	found := false
	for b := uint64(1000); b < 3000; b++ {
		conflict, fp := tr.CheckRemote(b, true)
		if conflict && fp {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("saturated signature produced no false positive")
	}
}

func TestSignatureNoFalseNegatives(t *testing.T) {
	f := func(blocks []uint64, probe uint64) bool {
		s := NewSignature(256, 2)
		for _, b := range blocks {
			s.Add(b)
		}
		for _, b := range blocks {
			if !s.MayContain(b) {
				return false // Bloom-style filters never false-negative
			}
		}
		_ = probe
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestL1TrackerEvictionAborts(t *testing.T) {
	tr := NewL1Tracker()
	tr.TrackRead(7)
	if tr.NotifyEviction(8) != true {
		t.Fatal("evicting untracked block must be fine")
	}
	if tr.NotifyEviction(7) != false {
		t.Fatal("evicting tracked block must signal capacity abort")
	}
}

func TestInfTrackerNeverOverflows(t *testing.T) {
	tr := NewInfTracker()
	for b := uint64(0); b < 10000; b++ {
		if !tr.TrackRead(b) || !tr.TrackWrite(b+1000000) {
			t.Fatal("InfCap overflowed")
		}
	}
	if !tr.NotifyEviction(5) {
		t.Fatal("InfCap must ignore evictions")
	}
}

func TestControllerLifecycle(t *testing.T) {
	c := NewController(NewP8Tracker(4))
	if c.Active() {
		t.Fatal("fresh controller active")
	}
	c.Begin()
	if r := c.Access(1, 0, false, false); r != AbortNone {
		t.Fatalf("tracked read: %v", r)
	}
	if r := c.Access(2, 0, true, false); r != AbortNone {
		t.Fatalf("tracked write: %v", r)
	}
	c.RecordUndo(0x100, 42)
	if !c.TouchedPage(0) {
		t.Fatal("page not recorded")
	}
	c.Commit()
	if c.Active() || c.FootprintBlocks() != 0 {
		t.Fatal("commit did not clear state")
	}
}

func TestControllerSafeAccessSkipsTracking(t *testing.T) {
	c := NewController(NewP8Tracker(2))
	c.Begin()
	for b := uint64(0); b < 100; b++ {
		if r := c.Access(b, b/64, false, true); r != AbortNone {
			t.Fatalf("safe access aborted: %v", r)
		}
	}
	if c.FootprintBlocks() != 0 {
		t.Fatalf("safe accesses consumed %d entries", c.FootprintBlocks())
	}
	// The pages were still recorded for page-mode aborts.
	if !c.TouchedPage(0) {
		t.Fatal("safe access page not recorded")
	}
	// Unsafe accesses still bounded.
	c.Access(200, 3, false, false)
	c.Access(201, 3, false, false)
	if r := c.Access(202, 3, false, false); r != AbortCapacity {
		t.Fatalf("expected capacity abort, got %v", r)
	}
}

func TestControllerUndoLogReversed(t *testing.T) {
	c := NewController(NewInfTracker())
	c.Begin()
	c.RecordUndo(8, 1)
	c.RecordUndo(16, 2)
	c.RecordUndo(8, 3) // second write to same addr
	log := c.Abort()
	if len(log) != 3 {
		t.Fatalf("undo entries = %d", len(log))
	}
	if log[0].Addr != 8 || log[0].Old != 3 || log[2].Addr != 8 || log[2].Old != 1 {
		t.Fatalf("undo order wrong: %+v", log)
	}
	if c.Active() {
		t.Fatal("abort left controller active")
	}
}

func TestControllerRemoteOpAndPageMode(t *testing.T) {
	c := NewController(NewP8Tracker(8))
	c.Begin()
	c.Access(1, 0, false, false)
	if r := c.OnRemoteOp(1, true); r != AbortConflict {
		t.Fatalf("remote write on read block: %v", r)
	}
	// Abort wasn't executed by controller — the machine does that. Clear:
	c.Abort()
	c.Begin()
	c.Access(64, 1, false, true) // safe access to page 1
	if r := c.OnPageModeTransition(1); r != AbortPageMode {
		t.Fatalf("page-mode transition: %v", r)
	}
	if r := c.OnPageModeTransition(9); r != AbortNone {
		t.Fatalf("untouched page transition: %v", r)
	}
}

func TestControllerInactiveIgnoresEvents(t *testing.T) {
	c := NewController(NewL1Tracker())
	if c.OnRemoteOp(1, true) != AbortNone ||
		c.OnLocalEviction(1) != AbortNone ||
		c.OnPageModeTransition(1) != AbortNone ||
		c.Access(1, 0, true, false) != AbortNone {
		t.Fatal("inactive controller must ignore events")
	}
}

func TestControllerL1EvictionCapacity(t *testing.T) {
	c := NewController(NewL1Tracker())
	c.Begin()
	c.Access(5, 0, true, false)
	if r := c.OnLocalEviction(5); r != AbortCapacity {
		t.Fatalf("tracked-line eviction: %v", r)
	}
}

func TestAbortReasonStrings(t *testing.T) {
	reasons := []AbortReason{AbortNone, AbortConflict, AbortFalseConflict,
		AbortCapacity, AbortPageMode, AbortFallbackLock, AbortExplicit}
	seen := map[string]bool{}
	for _, r := range reasons {
		s := r.String()
		if seen[s] {
			t.Errorf("duplicate reason name %q", s)
		}
		seen[s] = true
	}
}

func TestNestedBeginPanics(t *testing.T) {
	c := NewController(NewInfTracker())
	c.Begin()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nested Begin")
		}
	}()
	c.Begin()
}

// --- tracker parity: every tracker constructor obeys the same contract ---

func TestTrackerContractParity(t *testing.T) {
	trackers := map[string]*Tracker{
		"p8":  NewP8Tracker(64),
		"p8s": NewSigTracker(64, 1024, 2),
		"l1":  NewL1Tracker(),
		"inf": NewInfTracker(),
	}
	for name, tr := range trackers {
		t.Run(name, func(t *testing.T) {
			tr.TrackRead(1)
			tr.TrackWrite(2)
			tr.TrackRead(2) // read of a written block: still one entry

			if got := tr.DistinctBlocks(); got != 2 {
				t.Fatalf("DistinctBlocks = %d, want 2", got)
			}
			if tr.ReadSetSize() < 2 || tr.WriteSetSize() != 1 {
				t.Fatalf("sets r=%d w=%d", tr.ReadSetSize(), tr.WriteSetSize())
			}
			if c, _ := tr.CheckRemote(2, false); !c {
				t.Fatal("remote read of written block must conflict")
			}
			if c, _ := tr.CheckRemote(1, true); !c {
				t.Fatal("remote write of read block must conflict")
			}
			if c, _ := tr.CheckRemote(1, false); c {
				t.Fatal("remote read of read block must not conflict")
			}
			if c, _ := tr.CheckRemote(99, true); c {
				t.Fatal("untracked block must not conflict")
			}
			tr.Reset()
			if tr.DistinctBlocks() != 0 || tr.ReadSetSize() != 0 || tr.WriteSetSize() != 0 {
				t.Fatal("reset left state")
			}
		})
	}
}
