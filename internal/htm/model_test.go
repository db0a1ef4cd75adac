package htm

import (
	"math/rand"
	"testing"
)

// trackerModel is a map-based reference for Tracker: the P8 buffer bound,
// P8S's read spill and lowest-read-only-block write victim, in-L1 loss on
// eviction, and unbounded InfCap tracking.
type trackerModel struct {
	capacity int  // 0 = unbounded
	sig      bool // P8S: buffer overflow spills into a signature
	inL1     bool // evicting a tracked block loses state
	buf      map[uint64]rwBits
	spilled  map[uint64]bool
	// bloom answers MayContain for blocks the signature never took: the
	// model keeps the exact spilled set itself, and uses the bit vector
	// only to predict aliasing.
	bloom *Signature
}

const (
	modelSigBits = 64 // small, so signature false positives happen
	modelHashes  = 2
)

// newModelPair builds tracker kind%4 (P8, P8S, L1TM, InfCap) with a buffer
// of capacity entries, and its reference model.
func newModelPair(kind uint8, capacity int) (*Tracker, *trackerModel) {
	m := &trackerModel{buf: map[uint64]rwBits{}, spilled: map[uint64]bool{}}
	switch kind % 4 {
	case 0:
		m.capacity = capacity
		return NewP8Tracker(capacity), m
	case 1:
		m.capacity, m.sig = capacity, true
		m.bloom = NewSignature(modelSigBits, modelHashes)
		return NewSigTracker(capacity, modelSigBits, modelHashes), m
	case 2:
		m.inL1 = true
		return NewL1Tracker(), m
	}
	return NewInfTracker(), m
}

func (m *trackerModel) spill(block uint64) {
	m.spilled[block] = true
	m.bloom.Add(block)
}

func (m *trackerModel) track(block uint64, bit rwBits) bool {
	if _, ok := m.buf[block]; ok || m.capacity == 0 || len(m.buf) < m.capacity {
		m.buf[block] |= bit
		return true
	}
	return false
}

func (m *trackerModel) read(block uint64) bool {
	if m.track(block, bitRead) {
		return true
	}
	if !m.sig {
		return false
	}
	m.spill(block)
	return true
}

func (m *trackerModel) write(block uint64) bool {
	if m.track(block, bitWrite) {
		return true
	}
	if !m.sig {
		return false
	}
	victim, found := uint64(0), false
	for b, bits := range m.buf {
		if bits == bitRead && (!found || b < victim) {
			victim, found = b, true
		}
	}
	if !found {
		return false
	}
	delete(m.buf, victim)
	m.spill(victim)
	m.buf[block] = bitWrite
	return true
}

func (m *trackerModel) checkRemote(block uint64, remoteWrite bool) (bool, bool) {
	if bits, ok := m.buf[block]; ok && (remoteWrite || bits&bitWrite != 0) {
		return true, false
	}
	if remoteWrite && m.spilled[block] {
		return true, false
	}
	if remoteWrite && m.sig && m.bloom.MayContain(block) {
		return true, true
	}
	return false, false
}

func (m *trackerModel) evict(block uint64) bool {
	_, tracked := m.buf[block]
	return !m.inL1 || !tracked
}

func (m *trackerModel) reset() {
	clear(m.buf)
	clear(m.spilled)
	if m.bloom != nil {
		m.bloom.Reset()
	}
}

// sizes returns the read set, write set and distinct-block counts. A block
// in both the buffer and the signature counts twice in the distinct count,
// as the tracker does.
func (m *trackerModel) sizes() (r, w, d int) {
	for _, bits := range m.buf {
		if bits&bitRead != 0 {
			r++
		}
		if bits&bitWrite != 0 {
			w++
		}
	}
	return r + len(m.spilled), w, len(m.buf) + len(m.spilled)
}

// checkTrackerMatchesModel runs ops, two bytes each (operation, block), on
// tracker kind and its model, comparing every return value and set size.
func checkTrackerMatchesModel(t *testing.T, kind, capM1 uint8, ops []byte) {
	t.Helper()
	tr, m := newModelPair(kind, int(capM1%8)+1)
	for i := 0; i+1 < len(ops); i += 2 {
		block := uint64(ops[i+1] % 32)
		var got, want [2]bool
		switch op := ops[i] % 8; op {
		case 0, 1:
			got[0], want[0] = tr.TrackRead(block), m.read(block)
		case 2, 3:
			got[0], want[0] = tr.TrackWrite(block), m.write(block)
		case 4, 5:
			got[0], got[1] = tr.CheckRemote(block, op == 5)
			want[0], want[1] = m.checkRemote(block, op == 5)
		case 6:
			got[0], want[0] = tr.NotifyEviction(block), m.evict(block)
		case 7:
			tr.Reset()
			m.reset()
		}
		if got != want {
			t.Fatalf("kind %d op %d (%d on block %d): tracker %v, model %v", kind%4, i/2, ops[i]%8, block, got, want)
		}
		r, w, d := m.sizes()
		if tr.ReadSetSize() != r || tr.WriteSetSize() != w || tr.DistinctBlocks() != d {
			t.Fatalf("kind %d op %d: tracker sizes r=%d w=%d distinct=%d, model r=%d w=%d distinct=%d",
				kind%4, i/2, tr.ReadSetSize(), tr.WriteSetSize(), tr.DistinctBlocks(), r, w, d)
		}
	}
}

// FuzzTrackerMatchesModel: every tracker constructor agrees with the
// map-based model on any sequence of tracked reads and writes, snoops,
// evictions and resets. Run natively with
// `go test -fuzz=FuzzTrackerMatchesModel ./internal/htm`.
func FuzzTrackerMatchesModel(f *testing.F) {
	f.Add(uint8(0), uint8(1), []byte{0, 1, 0, 2, 0, 3, 2, 2, 5, 1, 4, 2})
	// P8S, 2 entries: read 1, 2, 3, then write 3 — block 3 sits in the
	// signature and in the buffer, so 3 blocks count as 4.
	f.Add(uint8(1), uint8(1), []byte{0, 1, 0, 2, 0, 3, 2, 3, 5, 3, 5, 9})
	f.Add(uint8(1), uint8(0), []byte{2, 1, 2, 2, 0, 4, 5, 7, 7, 0, 0, 5})
	f.Add(uint8(2), uint8(0), []byte{0, 1, 2, 2, 6, 3, 6, 1, 7, 0, 6, 1})
	f.Add(uint8(3), uint8(0), []byte{0, 1, 2, 1, 4, 1, 5, 1, 6, 1, 7, 0})
	f.Fuzz(func(t *testing.T, kind, capM1 uint8, ops []byte) {
		checkTrackerMatchesModel(t, kind, capM1, ops)
	})
}

// TestTrackerMatchesModel runs the model check over every tracker kind and
// buffer size the fuzzer draws, with long seeded op sequences.
func TestTrackerMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for kind := uint8(0); kind < 4; kind++ {
		for capM1 := uint8(0); capM1 < 8; capM1++ {
			ops := make([]byte, 4000)
			rng.Read(ops)
			checkTrackerMatchesModel(t, kind, capM1, ops)
		}
	}
}
