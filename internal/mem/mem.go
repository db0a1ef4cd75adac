// Package mem provides the simulated physical address space used by the
// HinTM architectural simulator: a sparse, 64-bit, word-addressed memory
// with page-granular backing storage, plus geometry helpers for the cache
// block (64 B) and page (4 KiB) sizes the paper's evaluation assumes.
//
// Addresses are byte addresses, but all simulated accesses are word (8 B)
// sized and word aligned; this matches the granularity at which the TIR
// interpreter issues loads and stores. Cache-block and page identities are
// derived from the byte address.
package mem

import (
	"fmt"

	"hintm/internal/flat"
)

// Geometry constants shared by the whole simulator (paper Table II).
const (
	// WordSize is the size of one simulated machine word in bytes.
	WordSize = 8
	// BlockSize is the cache block size in bytes.
	BlockSize = 64
	// PageSize is the virtual memory page size in bytes.
	PageSize = 4096
	// WordsPerPage is the number of words backing one page.
	WordsPerPage = PageSize / WordSize
	// WordsPerBlock is the number of words in one cache block.
	WordsPerBlock = BlockSize / WordSize
	// BlocksPerPage is the number of cache blocks in one page.
	BlocksPerPage = PageSize / BlockSize
)

// Addr is a simulated virtual (and, in this machine, physical) byte address.
type Addr uint64

// Block returns the cache-block number containing a.
func (a Addr) Block() uint64 { return uint64(a) / BlockSize }

// Page returns the page number containing a.
func (a Addr) Page() uint64 { return uint64(a) / PageSize }

// WordAligned reports whether a is aligned to the machine word size.
func (a Addr) WordAligned() bool { return a%WordSize == 0 }

// String formats the address in hex for diagnostics.
func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// page is the backing store for one 4 KiB page of simulated memory.
type page [WordsPerPage]int64

// Memory is a sparse simulated physical memory in which every unwritten
// word reads as zero. Create with NewMemory. Pages are reached through an
// open-addressed index plus a last-page cache: simulated accesses have
// strong page locality, so most words resolve without even a table probe.
// Memory is not safe for concurrent use; the simulator is single-goroutine
// and interleaves simulated threads deterministically.
type Memory struct {
	idx flat.Tab[*page]
	// lastPN/lastPage memoize the most recently touched page.
	lastPN   uint64
	lastPage *page
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	m := &Memory{}
	m.idx.Init(256, false)
	return m
}

// lookup returns the backing page for page number pn, or nil if untouched.
func (m *Memory) lookup(pn uint64) *page {
	if m.lastPage != nil && m.lastPN == pn {
		return m.lastPage
	}
	i, ok := m.idx.Find(pn)
	if !ok {
		return nil
	}
	p := m.idx.Vals[i]
	m.lastPN, m.lastPage = pn, p
	return p
}

// ReadWord returns the word stored at word-aligned address a.
// Unwritten memory reads as zero. Panics on unaligned access: the
// interpreter only ever issues aligned accesses, so misalignment is an
// internal invariant violation, not a simulated program error.
func (m *Memory) ReadWord(a Addr) int64 {
	if !a.WordAligned() {
		panic(fmt.Sprintf("mem: unaligned read at %v", a))
	}
	p := m.lookup(a.Page())
	if p == nil {
		return 0
	}
	return p[wordIndex(a)]
}

// WriteWord stores v at word-aligned address a, allocating backing storage
// on first touch.
func (m *Memory) WriteWord(a Addr, v int64) {
	if !a.WordAligned() {
		panic(fmt.Sprintf("mem: unaligned write at %v", a))
	}
	pn := a.Page()
	p := m.lookup(pn)
	if p == nil {
		p = new(page)
		m.idx.Add(pn, p)
		m.lastPN, m.lastPage = pn, p
	}
	p[wordIndex(a)] = v
}

func wordIndex(a Addr) int {
	return int(uint64(a)%PageSize) / WordSize
}
