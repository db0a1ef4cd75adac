package sim

import (
	"context"
	"testing"

	"hintm/internal/htm"
	"hintm/internal/mem"
)

// txRecorder is a Profiler that is also a TxObserver, the shape of the
// benchmark module's layer-replay recorder.
type txRecorder struct {
	accesses         int
	begins, commits  uint64
	aborts           map[htm.AbortReason]uint64
	open             map[int]bool // tid → inside a begin..commit/abort pair
	unpaired, nested int
}

func (r *txRecorder) OnAccess(tid int, addr mem.Addr, write, inTx bool) { r.accesses++ }

func (r *txRecorder) OnTxEvent(tid int, ev TxEventKind, reason htm.AbortReason) {
	switch ev {
	case TxEventBegin:
		r.begins++
		if r.open[tid] {
			r.nested++
		}
		r.open[tid] = true
		return
	case TxEventCommit:
		r.commits++
	case TxEventAbort:
		r.aborts[reason]++
	}
	if !r.open[tid] {
		r.unpaired++
	}
	r.open[tid] = false
}

// TestTxObserverContract pins what SetProfiler delivers to an observer that
// also implements TxObserver, the contract the benchmark module's replay
// recorder relies on: every access, and the begin and the commit or abort
// (with its reason) of every hardware transaction attempt, paired per
// thread — but no event for a section run under the fallback lock. The
// runs have capacity aborts that end in fallback sections, and hinted
// runs that commit in hardware.
func TestTxObserverContract(t *testing.T) {
	var fallbacks, commits, capacity uint64
	for _, c := range []struct {
		name  string
		hints HintMode
	}{
		{"unhinted", HintNone},
		{"hinted", HintFull},
	} {
		cfg := DefaultConfig()
		cfg.Hints = c.hints
		m, err := New(cfg, classified(t, bigTxModule(4, 4, 100)))
		if err != nil {
			t.Fatal(err)
		}
		rec := &txRecorder{aborts: make(map[htm.AbortReason]uint64), open: make(map[int]bool)}
		m.SetProfiler(rec)
		res, err := m.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}

		if rec.accesses == 0 {
			t.Errorf("%s: no access delivered", c.name)
		}
		if want := res.Commits + res.TotalAborts(); rec.begins != want {
			t.Errorf("%s: %d begins, want commits + aborts = %d (fallback sections: %d)",
				c.name, rec.begins, want, res.FallbackCommits)
		}
		if rec.commits != res.Commits {
			t.Errorf("%s: %d commit events, result counts %d", c.name, rec.commits, res.Commits)
		}
		for _, r := range htm.AbortReasons {
			if rec.aborts[r] != res.Aborts[r] {
				t.Errorf("%s: %d %s abort events, result counts %d", c.name, rec.aborts[r], r, res.Aborts[r])
			}
		}
		if rec.unpaired != 0 || rec.nested != 0 {
			t.Errorf("%s: %d ends without a begin, %d begins inside an open attempt", c.name, rec.unpaired, rec.nested)
		}
		fallbacks += res.FallbackCommits
		commits += res.Commits
		capacity += res.Aborts[htm.AbortCapacity]
	}
	if fallbacks == 0 || commits == 0 || capacity == 0 {
		t.Errorf("vacuous: %d fallback sections, %d commits, %d capacity aborts", fallbacks, commits, capacity)
	}
}
