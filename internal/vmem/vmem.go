// Package vmem implements HinTM's dynamic, page-granular memory access
// classification (paper §III-B, §IV-B): the page table is extended with a
// per-page {tid, ro, shared} record tracking inter-thread sharing at
// runtime, mirrored into per-context TLBs. Reads to (private,*) pages by the
// owning thread and to (shared,ro) pages are safe; a page transitioning from
// a safe mode to (shared,rw) is a page-mode event that must abort every
// active transaction that touched the page and shoot down stale TLB entries
// (modelled with the paper's 6600-cycle initiator / 1450-cycle slave costs).
package vmem

import (
	"fmt"

	"hintm/internal/flat"
)

// Mode is a page's sharing mode (paper Fig. 2).
type Mode uint8

// Page modes.
const (
	Untouched Mode = iota
	PrivateRO
	PrivateRW
	SharedRO
	SharedRW
)

func (m Mode) String() string {
	switch m {
	case Untouched:
		return "untouched"
	case PrivateRO:
		return "private-ro"
	case PrivateRW:
		return "private-rw"
	case SharedRO:
		return "shared-ro"
	case SharedRW:
		return "shared-rw"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// safeFor reports whether a READ of a page in this mode by thread tid is
// safe. Writes are never dynamically safe (initializing-ness cannot be
// established at runtime, paper §III-B).
func (m Mode) safeFor(tid, owner int) bool {
	switch m {
	case PrivateRO, PrivateRW:
		return tid == owner
	case SharedRO:
		return true
	}
	return false
}

// Costs parameterizes the paper's page-management latencies (cycles).
type Costs struct {
	// TLBMiss is the page-walk latency added on a TLB miss.
	TLBMiss int64
	// MinorFault is the (private,ro)→(private,rw) fault cost.
	MinorFault int64
	// ShootdownInitiator / ShootdownSlave are the TLB-shootdown costs for a
	// safe→unsafe transition.
	ShootdownInitiator int64
	ShootdownSlave     int64
}

// DefaultCosts returns the paper's §V cost model.
func DefaultCosts() Costs {
	return Costs{TLBMiss: 20, MinorFault: 1450, ShootdownInitiator: 6600, ShootdownSlave: 1450}
}

// Transition describes a safe→unsafe page-mode event.
type Transition struct {
	Page uint64
	// Slaves lists contexts (other than the initiator) whose TLBs held the
	// page and were shot down.
	Slaves []int
	// InitiatorCycles is the cost already charged to the initiating
	// context: the page fault, plus the full shootdown-initiation overhead
	// when remote TLB entries had to be invalidated.
	InitiatorCycles int64
}

// Outcome describes one access's translation result.
type Outcome struct {
	// Safe reports page-derived safety: true only for reads of safe pages
	// when dynamic classification is enabled.
	Safe bool
	// TLBMiss reports a page walk occurred.
	TLBMiss bool
	// MinorFault reports a (private,ro)→(private,rw) upgrade fault fired.
	MinorFault bool
	// FaultCycles is extra latency charged to the initiator (minor fault
	// and/or shootdown initiation).
	FaultCycles int64
	// Transition is non-nil when the access turned a safe page unsafe;
	// the machine must abort every TX that touched the page and charge
	// slave costs.
	Transition *Transition
}

// Stats counts translation events.
type Stats struct {
	TLBMisses    uint64
	MinorFaults  uint64
	Transitions  uint64
	SafeAccesses uint64
}

// pageEntry is one extended page-table record. Entries live by value in the
// Manager's slice-backed arena; the flat page-number index maps to arena
// positions, so the walk path chases no per-entry pointers.
type pageEntry struct {
	mode Mode
	tid  int32
}

// tlbEntry is one translation-cache record, stored by value in the table.
// node indexes the entry's recency-list node in the owning tlb.
type tlbEntry struct {
	mode Mode
	tid  int32
	node int32
}

// tlbNode is one link of a tlb's recency list. Nodes never move, so the
// table entries that point at them may be shifted freely by flat.Tab.Del.
type tlbNode struct {
	page       uint64
	prev, next int32
}

// tlb is one hardware context's translation cache: fully associative with
// exact-LRU replacement, the model every committed TLB-miss count was
// produced under. The page index is a fixed open-addressed table (2×
// capacity slots, reused forever); recency is an intrusive circular doubly
// linked list over a fixed node pool. A hit moves its node to
// the head, a fill into a full TLB evicts the tail, and invalidated nodes
// go on a free list — every operation is O(1).
type tlb struct {
	tab flat.Tab[tlbEntry]
	// nodes[0] is the list sentinel: its next is the most recently used
	// node and its prev the least recently used one.
	nodes []tlbNode
	// free is the first unused node, chained through next; 0 means none.
	free int32
}

func newTLB(capacity int) *tlb {
	capacity = max(capacity, 1) // a 0-entry TLB still holds the last page
	t := &tlb{nodes: make([]tlbNode, capacity+1)}
	t.tab.Init(2*capacity, true)
	t.reset()
	return t
}

// reset empties the TLB, returning every node to the free list.
func (t *tlb) reset() {
	t.tab.Reset()
	t.nodes[0] = tlbNode{}
	for i := 1; i < len(t.nodes); i++ {
		t.nodes[i].next = int32(i + 1)
	}
	t.nodes[len(t.nodes)-1].next = 0
	t.free = 1
}

func (t *tlb) unlink(n int32) {
	nodes := t.nodes
	nd := &nodes[n]
	nodes[nd.prev].next = nd.next
	nodes[nd.next].prev = nd.prev
}

func (t *tlb) pushFront(n int32) {
	nodes := t.nodes
	head := nodes[0].next
	nodes[n].prev, nodes[n].next = 0, head
	nodes[head].prev = n
	nodes[0].next = n
}

// lookup returns the entry for page, making it most recently used, or nil
// on miss. The pointer aliases table storage and is valid until the next
// install or invalidate.
func (t *tlb) lookup(page uint64) *tlbEntry {
	i, ok := t.tab.Find(page)
	if !ok {
		return nil
	}
	e := &t.tab.Vals[i]
	if e.node != t.nodes[0].next {
		t.unlink(e.node)
		t.pushFront(e.node)
	}
	return e
}

// install caches a page that is not resident, evicting the least recently
// used entry when the TLB is full.
func (t *tlb) install(page uint64, mode Mode, tid int32) {
	n := t.free
	if n != 0 {
		t.free = t.nodes[n].next
	} else {
		n = t.nodes[0].prev
		t.tab.Del(t.nodes[n].page)
		t.unlink(n)
	}
	t.nodes[n].page = page
	t.pushFront(n)
	t.tab.Add(page, tlbEntry{mode: mode, tid: tid, node: n})
}

func (t *tlb) invalidate(page uint64) bool {
	i, ok := t.tab.Find(page)
	if !ok {
		return false
	}
	n := t.tab.Vals[i].node
	t.tab.Del(page)
	t.unlink(n)
	t.nodes[n].next = t.free
	t.free = n
	return true
}

func (t *tlb) has(page uint64) bool {
	_, ok := t.tab.Find(page)
	return ok
}

// Manager is the translation subsystem for all hardware contexts.
type Manager struct {
	// Enabled selects HinTM-dyn; when false, translation still models TLB
	// costs but never derives safety nor tracks sharing.
	enabled bool
	costs   Costs
	// pt maps page number → index into the arena; pages live by value.
	pt    flat.Tab[int32]
	arena []pageEntry
	tlbs  []*tlb
	stats Stats
}

// New builds a manager for nContexts hardware contexts with tlbEntries-entry
// TLBs.
func New(nContexts, tlbEntries int, costs Costs, enabled bool) *Manager {
	m := &Manager{
		enabled: enabled,
		costs:   costs,
	}
	m.pt.Init(256, false)
	m.arena = make([]pageEntry, 0, 256)
	for i := 0; i < nContexts; i++ {
		m.tlbs = append(m.tlbs, newTLB(tlbEntries))
	}
	return m
}

// Enabled reports whether dynamic classification is active.
func (m *Manager) Enabled() bool { return m.enabled }

// Stats returns a copy of the counters.
func (m *Manager) Stats() Stats { return m.stats }

// PageMode returns the page's current mode (for tests and diagnostics).
func (m *Manager) PageMode(page uint64) (Mode, int) {
	if i, ok := m.pt.Find(page); ok {
		pe := &m.arena[m.pt.Vals[i]]
		return pe.mode, int(pe.tid)
	}
	return Untouched, -1
}

// pageFor returns the arena entry for page, creating it as Untouched.
func (m *Manager) pageFor(page uint64) *pageEntry {
	if i, ok := m.pt.Find(page); ok {
		return &m.arena[m.pt.Vals[i]]
	}
	m.arena = append(m.arena, pageEntry{mode: Untouched})
	m.pt.Add(page, int32(len(m.arena)-1))
	return &m.arena[len(m.arena)-1]
}

// Access translates one access by thread tid on hardware context ctx.
func (m *Manager) Access(ctx, tid int, page uint64, write bool) Outcome {
	var out Outcome
	t := m.tlbs[ctx]
	e := t.lookup(page)
	if e == nil {
		out.TLBMiss = true
		out.FaultCycles += m.costs.TLBMiss
		m.stats.TLBMisses++
	}
	if !m.enabled {
		if e == nil {
			t.install(page, Untouched, int32(tid))
		}
		return out
	}

	// A TLB hit can only satisfy the access when no permission/mode change
	// is needed: writes to cached read-only modes must walk (fault path),
	// exactly as real hardware traps on a protection violation.
	if e != nil {
		switch {
		case !write:
			out.Safe = e.mode.safeFor(tid, int(e.tid))
			if out.Safe {
				m.stats.SafeAccesses++
			}
			return out
		case e.mode == PrivateRW && int(e.tid) == tid, e.mode == SharedRW:
			return out // write permitted, unsafe
		}
		// Fall through to the page walk with fault semantics.
	}

	pe := m.pageFor(page)
	m.walk(ctx, tid, page, write, pe, &out)
	if e != nil {
		// The walk touches no other entry of this TLB (shootdowns skip the
		// initiator), so e is still valid and lookup already made it most
		// recently used: refresh it in place.
		e.mode, e.tid = pe.mode, pe.tid
	} else {
		t.install(page, pe.mode, pe.tid)
	}
	if out.Safe {
		m.stats.SafeAccesses++
	}
	return out
}

// walk applies the paper's Fig.-2 state machine.
func (m *Manager) walk(ctx, tid int, page uint64, write bool, pe *pageEntry, out *Outcome) {
	switch pe.mode {
	case Untouched:
		pe.tid = int32(tid)
		if write {
			pe.mode = PrivateRW
		} else {
			pe.mode = PrivateRO
			out.Safe = true
		}
	case PrivateRO:
		switch {
		case tid == int(pe.tid) && !write:
			out.Safe = true
		case tid == int(pe.tid) && write:
			// Minor fault: own page upgrades ro→rw.
			pe.mode = PrivateRW
			out.MinorFault = true
			out.FaultCycles += m.costs.MinorFault
			m.stats.MinorFaults++
		case !write:
			// Second thread reads: page becomes shared read-only. Reads
			// stay safe for everyone; no shootdown needed.
			pe.mode = SharedRO
			out.Safe = true
		default:
			// Second thread writes a page another thread read privately:
			// safe→unsafe transition.
			m.transition(ctx, page, pe, out)
		}
	case PrivateRW:
		if tid == int(pe.tid) {
			if !write {
				out.Safe = true
			}
			return
		}
		// Any access by another thread turns the page shared-rw.
		m.transition(ctx, page, pe, out)
	case SharedRO:
		if !write {
			out.Safe = true
			return
		}
		m.transition(ctx, page, pe, out)
	case SharedRW:
		// Absorbing unsafe state.
	}
}

// transition moves pe to SharedRW, shooting down every other context's TLB
// entry for the page and charging the paper's costs. The full 6600-cycle
// initiator overhead (OS handler + IPI round) applies only when remote TLB
// entries actually exist; a transition nobody else has cached costs one
// minor fault, as in OSes that track per-page TLB presence.
func (m *Manager) transition(ctx int, page uint64, pe *pageEntry, out *Outcome) {
	pe.mode = SharedRW
	tr := &Transition{Page: page}
	for c, t := range m.tlbs {
		if c == ctx {
			continue
		}
		if t.invalidate(page) {
			tr.Slaves = append(tr.Slaves, c)
		}
	}
	tr.InitiatorCycles = m.costs.MinorFault
	if len(tr.Slaves) > 0 {
		tr.InitiatorCycles = m.costs.ShootdownInitiator
	}
	out.FaultCycles += tr.InitiatorCycles
	out.Transition = tr
	m.stats.Transitions++
}

// SlaveCost returns the per-slave shootdown cost for charging by the machine.
func (m *Manager) SlaveCost() int64 { return m.costs.ShootdownSlave }

// ResetSharing clears all page-sharing state and TLB contents, keeping
// backing storage. The machine calls it when a parallel region starts:
// dynamic classification tracks the region's inter-thread sharing, not the
// single-threaded setup phase whose writes would otherwise force every
// initialized page straight to shared-rw.
func (m *Manager) ResetSharing() {
	m.pt.Reset()
	m.arena = m.arena[:0]
	for _, t := range m.tlbs {
		t.reset()
	}
}

// HasTLBEntry reports whether context ctx caches page (tests/diagnostics).
func (m *Manager) HasTLBEntry(ctx int, page uint64) bool {
	return m.tlbs[ctx].has(page)
}
