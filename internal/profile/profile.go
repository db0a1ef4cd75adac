// Package profile implements the memory-sharing profiler behind the paper's
// Fig.-1 opportunity study: for every memory region touched by worker
// threads — at cache-block (64 B) and page (4 KiB) granularity — it records
// which threads read and wrote it, classifies the region as safe (no
// inter-thread read-write sharing across the whole run), and counts how many
// transactional reads target safe regions.
package profile

import (
	"hintm/internal/flat"
	"hintm/internal/mem"
	"hintm/internal/obs"
)

// threadSet is a bitmask of worker thread ids (the suite runs ≤ 16 threads).
type threadSet uint64

func (s threadSet) count() int {
	n := 0
	for s != 0 {
		s &= s - 1
		n++
	}
	return n
}

type regionInfo struct {
	readers threadSet
	writers threadSet
	txReads uint64 // transactional reads that targeted the region
}

// safe implements the paper's §II-B region criterion: a region is safe if
// there is no read-write sharing between two or more threads — i.e. it is
// never written, or accessed by a single thread only.
func (r regionInfo) safe() bool {
	if r.writers == 0 {
		return true
	}
	all := r.readers | r.writers
	return all.count() == 1
}

// Sharing profiles one run. It is an unordered observer (obs.Tracer) that
// reads accesses only, so a profiled run keeps run-ahead scheduling.
type Sharing struct {
	obs.Unordered

	// MaxWorkerTID filters out the main (setup) thread: only accesses by
	// tids <= MaxWorkerTID count, since Fig. 1 studies the parallel phase.
	MaxWorkerTID int

	blocks flat.Tab[regionInfo]
	pages  flat.Tab[regionInfo]

	txReads    uint64 // transactional reads observed
	txAccesses uint64 // all transactional accesses
}

// NewSharing returns a profiler accepting worker tids up to maxWorkerTID.
func NewSharing(maxWorkerTID int) *Sharing {
	s := &Sharing{MaxWorkerTID: maxWorkerTID}
	s.blocks.Init(1<<12, false)
	s.pages.Init(1<<8, false)
	return s
}

var _ obs.Tracer = (*Sharing)(nil)

// Access implements obs.Tracer.
func (s *Sharing) Access(_, tid int, addr mem.Addr, write, inTx bool) {
	if tid > s.MaxWorkerTID {
		return
	}
	bit := threadSet(1) << uint(tid&63)
	b := region(&s.blocks, addr.Block())
	p := region(&s.pages, addr.Page())
	if write {
		b.writers |= bit
		p.writers |= bit
	} else {
		b.readers |= bit
		p.readers |= bit
	}
	if inTx {
		s.txAccesses++
		if !write {
			s.txReads++
			b.txReads++
			p.txReads++
		}
	}
}

// region returns a pointer into the table's value slot for key, inserting an
// empty record on first touch. The pointer is only valid until the next Add
// (a grow rehashes into fresh backing), so callers must not retain it across
// Access calls.
func region(t *flat.Tab[regionInfo], key uint64) *regionInfo {
	i, ok := t.Find(key)
	if !ok {
		i = t.Add(key, regionInfo{})
	}
	return &t.Vals[i]
}

// Report is the Fig.-1 metric set for one run.
type Report struct {
	// SafeBlockFrac / SafePageFrac: fraction of touched regions that are
	// safe over the whole execution, at each granularity.
	SafeBlockFrac, SafePageFrac float64
	// SafeReadFracBlock / SafeReadFracPage: fraction of transactional
	// accesses that are reads to safe regions, judged at each granularity
	// (the paper's ~60% / ~40% averages).
	SafeReadFracBlock, SafeReadFracPage float64
	// Totals for context.
	Blocks, Pages       int
	TxAccesses, TxReads uint64
}

// Report finalizes the metrics. Safety is judged over the whole run
// (post-mortem), exactly like the paper's limit study: a transactional read
// counts as safe if its region ends the run safe.
func (s *Sharing) Report() Report {
	var rep Report
	rep.Blocks = s.blocks.N
	rep.Pages = s.pages.N
	rep.TxAccesses = s.txAccesses
	rep.TxReads = s.txReads

	// A transactional read counts as safe when its region ends the run
	// safe, so summing each safe region's read count equals judging every
	// read after the fact.
	safeB, safeP := 0, 0
	var sb, sp uint64
	for i, g := range s.blocks.Gens {
		if g == s.blocks.Gen && s.blocks.Vals[i].safe() {
			safeB++
			sb += s.blocks.Vals[i].txReads
		}
	}
	for i, g := range s.pages.Gens {
		if g == s.pages.Gen && s.pages.Vals[i].safe() {
			safeP++
			sp += s.pages.Vals[i].txReads
		}
	}
	if rep.Blocks > 0 {
		rep.SafeBlockFrac = float64(safeB) / float64(rep.Blocks)
	}
	if rep.Pages > 0 {
		rep.SafePageFrac = float64(safeP) / float64(rep.Pages)
	}
	if s.txAccesses > 0 {
		rep.SafeReadFracBlock = float64(sb) / float64(s.txAccesses)
		rep.SafeReadFracPage = float64(sp) / float64(s.txAccesses)
	}
	return rep
}
