package cache

import (
	"math/rand"
	"runtime"
	"testing"
)

// stampArray is the stamp-based array the recency word replaced, kept as
// the reference model: every slot carries the array-wide tick of its last
// touch, and a full set evicts the slot with the smallest stamp.
type stampArray struct {
	lines []stampLine
	used  []int32
	mask  uint64
	ways  int
	tick  uint64
}

type stampLine struct {
	block uint64
	state State
	lru   uint64
}

func newStampArray(sets, ways int) *stampArray {
	return &stampArray{
		lines: make([]stampLine, sets*ways),
		used:  make([]int32, sets),
		mask:  uint64(sets - 1),
		ways:  ways,
	}
}

func (a *stampArray) set(block uint64) []stampLine {
	si := int(block & a.mask)
	return a.lines[si*a.ways : si*a.ways+int(a.used[si])]
}

func (a *stampArray) find(block uint64) int {
	set := a.set(block)
	for i := range set {
		if set[i].block == block && set[i].state != Invalid {
			a.tick++
			set[i].lru = a.tick
			return int(block&a.mask)*a.ways + i
		}
	}
	return -1
}

func (a *stampArray) insert(block uint64, st State) (uint64, State, bool) {
	si := int(block & a.mask)
	set := a.lines[si*a.ways : si*a.ways+int(a.used[si])]
	a.tick++
	for i := range set {
		if set[i].state == Invalid {
			set[i] = stampLine{block: block, state: st, lru: a.tick}
			return 0, Invalid, false
		}
	}
	if int(a.used[si]) < a.ways {
		a.lines[si*a.ways+int(a.used[si])] = stampLine{block: block, state: st, lru: a.tick}
		a.used[si]++
		return 0, Invalid, false
	}
	victim := 0
	for i := range set {
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	ev, evSt := set[victim].block, set[victim].state
	set[victim] = stampLine{block: block, state: st, lru: a.tick}
	return ev, evSt, true
}

func (a *stampArray) invalidate(block uint64) State {
	set := a.set(block)
	for i := range set {
		if set[i].block == block && set[i].state != Invalid {
			st := set[i].state
			set[i].state = Invalid
			return st
		}
	}
	return Invalid
}

// checkLRUMatchesStamps drives the production array and the stamp model
// with the same operations: each op is a byte pair, the first choosing
// find, insert (with its state) or invalidate, the second the block. It
// fails on the first differing outcome or evicted block, and compares
// every populated slot after each op.
func checkLRUMatchesStamps(t *testing.T, sets, ways int, ops []byte) {
	t.Helper()
	a, ref := newArray(sets, ways), newStampArray(sets, ways)
	// Blocks range over about twice the array's capacity, so sets fill,
	// overflow and hit.
	span := byte(2*sets*ways + 1)
	for k := 0; k+1 < len(ops); k += 2 {
		op, block := ops[k]%5, uint64(ops[k+1]%span)
		switch op {
		case 0:
			if got, want := a.find(block), ref.find(block); got != want {
				t.Fatalf("op %d find(%d) = slot %d, stamp model %d", k/2, block, got, want)
			}
		case 1, 2, 3:
			st := State(op)
			ev, evSt, did := a.insert(block, st)
			wev, wevSt, wdid := ref.insert(block, st)
			if ev != wev || evSt != wevSt || did != wdid {
				t.Fatalf("op %d insert(%d, %v) evicted (%d, %v, %v), stamp model (%d, %v, %v)",
					k/2, block, st, ev, evSt, did, wev, wevSt, wdid)
			}
		case 4:
			if got, want := a.invalidate(block), ref.invalidate(block); got != want {
				t.Fatalf("op %d invalidate(%d) = %v, stamp model %v", k/2, block, got, want)
			}
		}
		for si := range a.used {
			if a.used[si] != ref.used[si] {
				t.Fatalf("op %d: set %d holds %d slots, stamp model %d", k/2, si, a.used[si], ref.used[si])
			}
			for i := 0; i < int(a.used[si]); i++ {
				tg, ln := a.tags[si*ways+i], ref.lines[si*ways+i]
				if tg>>2 != ln.block || State(tg&3) != ln.state {
					t.Fatalf("op %d: set %d slot %d holds (%d, %v), stamp model (%d, %v)",
						k/2, si, i, tg>>2, State(tg&3), ln.block, ln.state)
				}
			}
		}
	}
}

// FuzzLRUMatchesStamps: the recency word picks exactly the victims the
// per-line stamps did, for any geometry up to 16 ways and any sequence of
// finds, inserts and invalidations. Run natively with
// `go test -fuzz=FuzzLRUMatchesStamps ./internal/cache`.
func FuzzLRUMatchesStamps(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{1, 0, 1, 1, 0, 0, 1, 2})
	f.Add(uint8(0), uint8(1), []byte{1, 0, 1, 2, 0, 0, 1, 4, 4, 2, 1, 6, 1, 8})
	f.Add(uint8(1), uint8(15), []byte{3, 1, 2, 3, 1, 5, 0, 3, 4, 5, 1, 7, 0, 1})
	f.Add(uint8(2), uint8(7), []byte{2, 9, 0, 9, 4, 9, 1, 9, 3, 17, 0, 9})
	f.Fuzz(func(t *testing.T, setsLog, waysM1 uint8, ops []byte) {
		checkLRUMatchesStamps(t, 1<<(setsLog%3), int(waysM1%maxWays)+1, ops)
	})
}

// TestLRUMatchesStamps runs the differential check over every
// associativity the recency word supports, with long seeded op sequences.
func TestLRUMatchesStamps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sets := range []int{1, 2} {
		for ways := 1; ways <= maxWays; ways++ {
			ops := make([]byte, 12000)
			rng.Read(ops)
			checkLRUMatchesStamps(t, sets, ways, ops)
		}
	}
}

// TestHierarchyHostFootprint pins the host memory of the paper's Table II
// hierarchy: one 8-byte tag per line, and per set one 8-byte recency word
// and one 4-byte fill count, plus 2 KiB for the hierarchy's and arrays'
// own structs.
func TestHierarchyHostFootprint(t *testing.T) {
	cfg := DefaultConfig(8)
	lines := cfg.Cores*cfg.L1Sets*cfg.L1Ways + cfg.L2Sets*cfg.L2Ways
	sets := cfg.Cores*cfg.L1Sets + cfg.L2Sets
	bound := uint64(8*lines+12*sets) + 2048

	drainTagPools() // measure fresh backings, not recycled ones
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := New(cfg)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Table II hierarchy: %d B for %d lines in %d sets", got, lines, sets)
	if got > bound {
		t.Errorf("building the Table II hierarchy allocates %d B, want <= %d (8 B/line + 12 B/set + 2 KiB)", got, bound)
	}
	h.Release()
}
