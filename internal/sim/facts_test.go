package sim

import (
	"context"
	"testing"

	"hintm/internal/htm"
	"hintm/internal/ir"
)

// abortingTx is a main-thread transaction that always aborts: each attempt
// reads three blocks and statically-safe reads a fourth, then asks to
// abort. After the conflict retries it completes under the fallback lock,
// so no attempt ever commits in hardware.
const abortingTx = `module facts
global @x [64 words] pagealigned

func @main() regs=8 frame=0w {
entry:
	txbegin
	r0 = global @x
	r1 = load [r0+0]
	r2 = load [r0+64]
	r3 = load [r0+128]
	r4 = load.safe [r0+192]
	r5 = const 1
	aborthint r5
	txend
	ret
}
`

// TestFactsCountEveryAttempt pins where the run facts are read: MaxTracked
// at abort as well as at commit (no attempt here commits in hardware), and
// StaticHintUses under every hint mode, under the fallback lock too.
func TestFactsCountEveryAttempt(t *testing.T) {
	attempts := uint64(DefaultConfig().MaxConflictRetries + 1)
	for _, c := range []struct {
		hints   HintMode
		tracked int
	}{
		{HintNone, 4},   // the safe read is tracked like the others
		{HintStatic, 3}, // the static hint keeps it out of the buffer
	} {
		mod, err := ir.Parse(abortingTx)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Hints = c.hints
		m, err := New(cfg, mod)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Aborts[htm.AbortExplicit] != attempts || res.Commits != 0 || res.FallbackCommits != 1 {
			t.Fatalf("%v: %v, want %d explicit aborts, then one fallback commit", c.hints, res, attempts)
		}
		want := Facts{StaticHintUses: attempts + 1, MaxTracked: c.tracked}
		if got := m.Facts(); got != want {
			t.Errorf("%v: facts %+v, want %+v", c.hints, got, want)
		}
	}
}
