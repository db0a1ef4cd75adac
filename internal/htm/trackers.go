package htm

import "hintm/internal/flat"

// rwBits records read/write membership for a tracked block.
type rwBits uint8

const (
	bitRead rwBits = 1 << iota
	bitWrite
)

// countBits tallies live entries carrying bit — the exact set-size
// statistic the tracker reports. It scans the table's slots; the scan is
// off the per-access hot path (sizes are read at commit/abort only).
func countBits(tab *flat.Tab[rwBits], bit rwBits) int {
	n := 0
	for i, g := range tab.Gens {
		if g == tab.Gen && tab.Vals[i]&bit != 0 {
			n++
		}
	}
	return n
}

// Tracker is the hardware structure that records a transaction's read and
// write sets at cache-block granularity. Every modeled HTM is one precise
// block table and what bounds it:
//
//   - P8 (NewP8Tracker): a dedicated fully-associative buffer of capacity
//     entries; readset and writeset share it, one entry per block.
//   - P8S (NewSigTracker): the P8 buffer backed by a PBX read signature;
//     reads that find the buffer full spill into the signature, so only
//     writes overflow.
//   - L1TM (NewL1Tracker): metadata bits in the private L1, unbounded in
//     entries, but evicting a tracked line loses the state.
//   - InfCap and STM (NewInfTracker): unbounded and never lost.
//
// Entries live in an open-addressed table reset by generation stamp between
// transactions, so steady-state tracking allocates nothing.
type Tracker struct {
	tab flat.Tab[rwBits]
	// capacity bounds the table's entries; 0 means unbounded.
	capacity int
	// sig, when set, takes the reads that overflow the buffer (P8S).
	sig *Signature
	// inL1: the tracked state lives in the L1, so an eviction of a tracked
	// line loses it.
	inL1 bool
}

// NewP8Tracker returns a buffer of the given positive entry count (the
// paper uses 64). Its table is sized at twice the capacity and never grows.
func NewP8Tracker(capacity int) *Tracker {
	t := &Tracker{capacity: capacity}
	t.tab.Init(2*capacity, true)
	return t
}

// NewSigTracker builds a P8S tracker: a capacity-entry buffer whose read
// overflow spills into a sigBits-bit signature with the given hash count.
func NewSigTracker(capacity int, sigBits uint64, hashes int) *Tracker {
	t := NewP8Tracker(capacity)
	t.sig = NewSignature(sigBits, hashes)
	return t
}

// NewL1Tracker builds an in-L1 tracker: capacity is the L1 itself, and
// evicting a tracked line is a capacity abort (including set-conflict
// misses).
func NewL1Tracker() *Tracker {
	t := NewInfTracker()
	t.inL1 = true
	return t
}

// NewInfTracker builds an unbounded precise tracker: the InfCap upper
// bound, and STM's software read/write sets.
func NewInfTracker() *Tracker {
	t := &Tracker{}
	t.tab.Init(512, false)
	return t
}

// track records bit for block in the table; false means the table is full.
func (t *Tracker) track(block uint64, bit rwBits) bool {
	if i, ok := t.tab.Find(block); ok {
		t.tab.Vals[i] |= bit
		return true
	}
	if t.capacity > 0 && t.tab.N >= t.capacity {
		return false
	}
	t.tab.Add(block, bit)
	return true
}

// TrackRead records a read of block; false means capacity overflow. A read
// that finds the buffer full spills into the signature, if there is one.
func (t *Tracker) TrackRead(block uint64) bool {
	if t.track(block, bitRead) {
		return true
	}
	if t.sig == nil {
		return false
	}
	t.sig.Add(block)
	return true
}

// TrackWrite records a write of block; false means capacity overflow. With
// a signature, a full buffer first spills one read-only entry into it to
// make room, so only a buffer full of writes overflows.
func (t *Tracker) TrackWrite(block uint64) bool {
	if t.track(block, bitWrite) {
		return true
	}
	if t.sig == nil {
		return false
	}
	// Deterministic victim choice (lowest block) keeps simulations
	// reproducible despite probe-order table layout.
	tab := &t.tab
	victim, found := uint64(0), false
	for i, g := range tab.Gens {
		if g == tab.Gen && tab.Vals[i] == bitRead {
			if b := tab.Keys[i]; !found || b < victim {
				victim, found = b, true
			}
		}
	}
	if !found {
		return false
	}
	tab.Del(victim)
	t.sig.Add(victim)
	return t.track(block, bitWrite)
}

// CheckRemote checks a snooped bus operation against the tracked sets: a
// remote write conflicts with any tracked block, a remote read with a
// tracked write. It returns whether the operation conflicts and whether
// that conflict is a false positive: table hits are precise, signature hits
// on remote writes may alias.
func (t *Tracker) CheckRemote(block uint64, remoteWrite bool) (conflict, falsePositive bool) {
	if i, ok := t.tab.Find(block); ok && (remoteWrite || t.tab.Vals[i]&bitWrite != 0) {
		return true, false
	}
	if remoteWrite && t.sig != nil && t.sig.MayContain(block) {
		return true, !t.sig.Contains(block)
	}
	return false, false
}

// NotifyEviction reports that the local L1 evicted block; false means the
// tracker lost transactional state. Only in-L1 tracking can: a dedicated
// buffer or software table is decoupled from the L1.
func (t *Tracker) NotifyEviction(block uint64) bool {
	if !t.inL1 {
		return true
	}
	_, tracked := t.tab.Find(block)
	return !tracked
}

// OverflowStructure names the structure a capacity abort overflowed: the
// L1 that evicted a tracked line (in-L1), the buffer's write set (P8S,
// whose reads never overflow), or the buffer (P8). Unbounded trackers never
// overflow and return "".
func (t *Tracker) OverflowStructure() string {
	switch {
	case t.inL1:
		return "l1-eviction"
	case t.sig != nil:
		return "tx-buffer-writeset"
	case t.capacity > 0:
		return "tx-buffer"
	}
	return ""
}

// ReadSetSize returns the read set size in blocks (exact, for statistics):
// table entries read plus every block inserted into the signature.
func (t *Tracker) ReadSetSize() int {
	n := countBits(&t.tab, bitRead)
	if t.sig != nil {
		n += t.sig.Size()
	}
	return n
}

// WriteSetSize returns the write set size in blocks.
func (t *Tracker) WriteSetSize() int { return countBits(&t.tab, bitWrite) }

// DistinctBlocks is the tracked-entry count: blocks both read and written
// occupy ONE entry, so this — not readset+writeset — is the
// capacity-relevant footprint. With a signature it adds the blocks the
// signature holds. The two are not disjoint: a signature-resident block
// that is later written also enters the buffer, and then counts twice.
func (t *Tracker) DistinctBlocks() int {
	n := t.tab.N
	if t.sig != nil {
		n += t.sig.Size()
	}
	return n
}

// Reset clears all tracked state.
func (t *Tracker) Reset() {
	t.tab.Reset()
	if t.sig != nil {
		t.sig.Reset()
	}
}

// Signature is a PBX-style hardware signature: a Bloom-like bitvector that
// summarizes overflowed readset addresses. Membership tests can alias,
// producing false conflicts (paper §II-A).
type Signature struct {
	bits   []uint64
	nbits  uint64
	hashes int
	// exact is simulation-only bookkeeping used to label a signature hit
	// as a true conflict or a false positive; real hardware cannot tell.
	exact flat.Tab[struct{}]
}

// NewSignature builds a signature of nbits (the paper's P8S uses 1024) with
// the given number of hash functions.
func NewSignature(nbits uint64, hashes int) *Signature {
	s := &Signature{
		bits:   make([]uint64, (nbits+63)/64),
		nbits:  nbits,
		hashes: hashes,
	}
	s.exact.Init(256, false)
	return s
}

// pbxHash implements the page-block-XOR family: the block address's upper
// (page) bits are XOR-folded onto the lower (block-in-page) bits, giving
// cheap, well-distributed indices.
func (s *Signature) pbxHash(block uint64, i int) uint64 {
	x := block
	x ^= x >> 6
	x *= 0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9
	x ^= x >> 29
	return x % s.nbits
}

// Add inserts block.
func (s *Signature) Add(block uint64) {
	for i := 0; i < s.hashes; i++ {
		h := s.pbxHash(block, i)
		s.bits[h/64] |= 1 << (h % 64)
	}
	if _, ok := s.exact.Find(block); !ok {
		s.exact.Add(block, struct{}{})
	}
}

// MayContain reports whether block may be in the signature (possibly a
// false positive).
func (s *Signature) MayContain(block uint64) bool {
	for i := 0; i < s.hashes; i++ {
		h := s.pbxHash(block, i)
		if s.bits[h/64]&(1<<(h%64)) == 0 {
			return false
		}
	}
	return true
}

// Contains reports exact membership (simulation-only).
func (s *Signature) Contains(block uint64) bool {
	_, ok := s.exact.Find(block)
	return ok
}

// Size reports exact inserted-block count.
func (s *Signature) Size() int { return s.exact.N }

// Reset clears the signature.
func (s *Signature) Reset() {
	for i := range s.bits {
		s.bits[i] = 0
	}
	s.exact.Reset()
}
