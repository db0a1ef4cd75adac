package vmem

import (
	"math/rand"
	"slices"
	"testing"
)

// refTLB is the stamp-and-scan exact-LRU model the recency list replaced:
// every hit or fill takes a fresh tick, and a fill into a full TLB scans for
// the entry with the oldest stamp.
type refTLB struct {
	capacity int
	tick     uint64
	entries  []refEntry
}

type refEntry struct {
	page uint64
	mode Mode
	tid  int32
	lru  uint64
}

func (r *refTLB) find(page uint64) int {
	for i := range r.entries {
		if r.entries[i].page == page {
			return i
		}
	}
	return -1
}

func (r *refTLB) lookup(page uint64) *refEntry {
	i := r.find(page)
	if i < 0 {
		return nil
	}
	r.tick++
	r.entries[i].lru = r.tick
	return &r.entries[i]
}

// install returns the evicted page, or -1 when nothing was evicted.
func (r *refTLB) install(page uint64, mode Mode, tid int32) int64 {
	victim := int64(-1)
	if len(r.entries) >= r.capacity {
		v := 0
		for i := range r.entries {
			if r.entries[i].lru < r.entries[v].lru {
				v = i
			}
		}
		victim = int64(r.entries[v].page)
		r.entries = slices.Delete(r.entries, v, v+1)
	}
	r.tick++
	r.entries = append(r.entries, refEntry{page: page, mode: mode, tid: tid, lru: r.tick})
	return victim
}

func (r *refTLB) invalidate(page uint64) bool {
	i := r.find(page)
	if i < 0 {
		return false
	}
	r.entries = slices.Delete(r.entries, i, i+1)
	return true
}

// order returns the resident pages, most recently used first.
func (r *refTLB) order() []uint64 {
	es := slices.Clone(r.entries)
	slices.SortFunc(es, func(a, b refEntry) int {
		if a.lru > b.lru {
			return -1
		}
		return 1
	})
	pages := make([]uint64, len(es))
	for i, e := range es {
		pages[i] = e.page
	}
	return pages
}

// has reports whether the TLB caches page.
func (t *tlb) has(page uint64) bool {
	_, ok := t.tab.Find(page)
	return ok
}

// order walks the recency list head to tail, checking its links and that
// every listed page is indexed and every node is either listed or free.
func (tl *tlb) order(t *testing.T) []uint64 {
	t.Helper()
	var pages []uint64
	prev := int32(0)
	for n := tl.nodes[0].next; n != 0; n = tl.nodes[n].next {
		if tl.nodes[n].prev != prev {
			t.Fatalf("node %d: prev %d, want %d", n, tl.nodes[n].prev, prev)
		}
		i, ok := tl.tab.Find(tl.nodes[n].page)
		if !ok || tl.tab.Vals[i].node != n {
			t.Fatalf("node %d (page %d) not indexed to itself", n, tl.nodes[n].page)
		}
		pages = append(pages, tl.nodes[n].page)
		prev = n
	}
	if tl.nodes[0].prev != prev {
		t.Fatalf("tail %d, want %d", tl.nodes[0].prev, prev)
	}
	free := 0
	for n := tl.free; n != 0; n = tl.nodes[n].next {
		free++
	}
	if len(pages) != tl.tab.N || len(pages)+free != len(tl.nodes)-1 {
		t.Fatalf("%d listed, %d indexed, %d free, %d nodes", len(pages), tl.tab.N, free, len(tl.nodes)-1)
	}
	return pages
}

// The recency list must pick exactly the victims the stamp-and-scan model
// picked — every committed TLB-miss count depends on it — across seeded
// random lookups, fills, invalidations and resets.
func TestTLBMatchesStampAndScanLRU(t *testing.T) {
	for _, capacity := range []int{1, 2, 16, 64, 256} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(capacity)))
			got, want := newTLB(capacity), &refTLB{capacity: capacity}
			pages := 2*capacity + 2
			for op := 0; op < 20000; op++ {
				page := uint64(rng.Intn(pages))
				switch r := rng.Intn(100); {
				case r < 45:
					g, w := got.lookup(page), want.lookup(page)
					if (g == nil) != (w == nil) || g != nil && (g.mode != w.mode || g.tid != w.tid) {
						t.Fatalf("cap %d seed %d op %d: lookup(%d) = %+v, want %+v", capacity, seed, op, page, g, w)
					}
				case r < 90:
					if want.find(page) >= 0 {
						continue
					}
					mode, tid := Mode(rng.Intn(5)), int32(rng.Intn(8))
					full := got.tab.N == capacity
					victim := want.install(page, mode, tid)
					got.install(page, mode, tid)
					if victim >= 0 && got.has(uint64(victim)) || victim < 0 && full {
						t.Fatalf("cap %d seed %d op %d: install(%d) evicted differently from page %d",
							capacity, seed, op, page, victim)
					}
				case r < 97:
					if g, w := got.invalidate(page), want.invalidate(page); g != w {
						t.Fatalf("cap %d seed %d op %d: invalidate(%d) = %v, want %v", capacity, seed, op, page, g, w)
					}
				default:
					got.reset()
					want.entries = want.entries[:0]
				}
				if g, w := got.order(t), want.order(); !slices.Equal(g, w) {
					t.Fatalf("cap %d seed %d op %d: recency order %v, want %v", capacity, seed, op, g, w)
				}
			}
		}
	}
}
