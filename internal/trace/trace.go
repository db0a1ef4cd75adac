// Package trace records and replays simulated memory-access traces. A
// recorded trace captures every data access (thread, address, read/write,
// transactional or not) plus transaction begin/commit/abort boundaries, in a
// compact varint binary format. Offline analysis over traces reproduces the
// paper's §II-B "first-order estimation" methodology: sharing metrics and
// transaction-footprint limit studies without re-running the simulator.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"hintm/internal/htm"
	"hintm/internal/mem"
	"hintm/internal/sim"
	"hintm/internal/stats"
)

// Kind tags one trace record.
type Kind uint8

// Record kinds.
const (
	// KindAccess is a data access; flags encode write/inTx.
	KindAccess Kind = iota
	KindTxBegin
	KindTxCommit
	KindTxAbort
)

// Event is one decoded trace record.
type Event struct {
	Kind  Kind
	TID   int
	Addr  mem.Addr // valid for KindAccess
	Write bool
	InTx  bool
	// Reason is the abort reason (valid for KindTxAbort; format TIR2+).
	Reason htm.AbortReason
}

// magic identifies the trace format (and its version). TIR2 added the abort
// reason varint trailing every KindTxAbort record.
var magic = [4]byte{'T', 'I', 'R', '2'}

// magicV1 is the pre-abort-reason format, recognized only to reject it with
// an actionable error.
var magicV1 = [4]byte{'T', 'I', 'R', '1'}

// Writer serializes events; it implements sim.Profiler and sim.TxObserver,
// so attaching it via Machine.SetProfiler records the whole run.
//
//	tw := trace.NewWriter(file)
//	machine.SetProfiler(tw)
//	machine.Run(ctx)
//	tw.Flush()
type Writer struct {
	w        *bufio.Writer
	err      error
	prevAddr uint64
	n        uint64
}

// NewWriter starts a trace stream on w.
func NewWriter(w io.Writer) *Writer {
	tw := &Writer{w: bufio.NewWriterSize(w, 1<<16)}
	_, tw.err = tw.w.Write(magic[:])
	return tw
}

var (
	_ sim.Profiler   = (*Writer)(nil)
	_ sim.TxObserver = (*Writer)(nil)
)

func (tw *Writer) putUvarint(v uint64) {
	if tw.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, tw.err = tw.w.Write(buf[:n])
}

// OnAccess implements sim.Profiler.
func (tw *Writer) OnAccess(tid int, addr mem.Addr, write, inTx bool) {
	// header byte: kind(2b) | write | inTx | tid(4b): tids are < 16 in
	// every machine configuration this simulator supports... larger tids
	// (main thread id = contexts, up to 16) need the extension below.
	flags := uint64(0)
	if write {
		flags |= 1
	}
	if inTx {
		flags |= 2
	}
	tw.putUvarint(uint64(KindAccess) | flags<<2 | uint64(tid)<<4)
	// Addresses are delta-encoded (zigzag) against the previous access:
	// spatial locality makes most deltas one or two bytes.
	delta := int64(uint64(addr) - tw.prevAddr)
	tw.putUvarint(zigzag(delta))
	tw.prevAddr = uint64(addr)
	tw.n++
}

// OnTxEvent implements sim.TxObserver. Abort records carry their reason as a
// trailing varint (TIR2).
func (tw *Writer) OnTxEvent(tid int, ev sim.TxEventKind, reason htm.AbortReason) {
	kind := KindTxBegin
	switch ev {
	case sim.TxEventCommit:
		kind = KindTxCommit
	case sim.TxEventAbort:
		kind = KindTxAbort
	}
	tw.putUvarint(uint64(kind) | uint64(tid)<<4)
	if kind == KindTxAbort {
		tw.putUvarint(uint64(reason))
	}
	tw.n++
}

// Events reports how many records were written.
func (tw *Writer) Events() uint64 { return tw.n }

// Flush completes the stream.
func (tw *Writer) Flush() error {
	if tw.err != nil {
		return tw.err
	}
	return tw.w.Flush()
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Reader decodes a trace stream.
type Reader struct {
	r        *bufio.Reader
	prevAddr uint64
}

// NewReader opens a trace stream, validating the header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if hdr == magicV1 {
		return nil, fmt.Errorf("trace: format TIR1 is no longer readable " +
			"(TIR2 added abort reasons); re-record the trace")
	}
	if hdr != magic {
		return nil, fmt.Errorf("trace: bad magic %q", hdr)
	}
	return &Reader{r: br}, nil
}

// Next decodes the next event; io.EOF ends the stream.
func (tr *Reader) Next() (Event, error) {
	head, err := binary.ReadUvarint(tr.r)
	if err != nil {
		return Event{}, err
	}
	kind := Kind(head & 3)
	if kind != KindAccess {
		ev := Event{Kind: kind, TID: int(head >> 4)}
		if kind == KindTxAbort {
			reason, err := binary.ReadUvarint(tr.r)
			if err != nil {
				return Event{}, fmt.Errorf("trace: truncated abort record: %w", err)
			}
			if !knownReason(reason) {
				return Event{}, fmt.Errorf("trace: abort record with unknown reason %d", reason)
			}
			ev.Reason = htm.AbortReason(reason)
		}
		return ev, nil
	}
	delta, err := binary.ReadUvarint(tr.r)
	if err != nil {
		return Event{}, fmt.Errorf("trace: truncated access record: %w", err)
	}
	tr.prevAddr += uint64(unzigzag(delta))
	return Event{
		Kind:  KindAccess,
		TID:   int(head >> 4),
		Write: head&(1<<2) != 0,
		InTx:  head&(1<<3) != 0,
		Addr:  mem.Addr(tr.prevAddr),
	}, nil
}

// knownReason reports whether r encodes one of the real abort reasons; a
// wider value would otherwise truncate silently into the uint8 reason.
func knownReason(r uint64) bool {
	for _, k := range htm.AbortReasons {
		if r == uint64(k) {
			return true
		}
	}
	return false
}

// ForEach decodes every event, invoking fn.
func (tr *Reader) ForEach(fn func(Event) error) error {
	for {
		ev, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
}

// LimitReport is the offline limit study over one trace: committed
// transaction footprints and the hypothetical capacity-abort rate for a
// range of buffer sizes — the paper's Fig.-6 analysis, trace-driven.
type LimitReport struct {
	// Footprints is the distinct-blocks-per-committed-TX histogram.
	Footprints *stats.Hist
	// CommittedTxs counts committed transactions.
	CommittedTxs uint64
	// AbortFracAt maps buffer sizes to the fraction of committed TXs whose
	// footprint would overflow a structure of that size.
	AbortFracAt map[int]float64
}

// LimitStudy replays a trace and computes footprint statistics. Accesses
// between a thread's TxBegin and TxCommit contribute to that transaction's
// footprint; aborted attempts are discarded, exactly like the simulator's
// own accounting.
func LimitStudy(r io.Reader, bufferSizes []int) (*LimitReport, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	rep := &LimitReport{Footprints: stats.NewHist(), AbortFracAt: make(map[int]float64)}
	open := make(map[int]map[uint64]struct{}) // tid -> distinct blocks
	err = tr.ForEach(func(ev Event) error {
		switch ev.Kind {
		case KindTxBegin:
			open[ev.TID] = make(map[uint64]struct{})
		case KindTxAbort:
			delete(open, ev.TID)
		case KindTxCommit:
			if blocks, ok := open[ev.TID]; ok {
				rep.Footprints.Add(len(blocks))
				rep.CommittedTxs++
				delete(open, ev.TID)
			}
		case KindAccess:
			if blocks, ok := open[ev.TID]; ok && ev.InTx {
				blocks[ev.Addr.Block()] = struct{}{}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, size := range bufferSizes {
		rep.AbortFracAt[size] = rep.Footprints.FractionAbove(size)
	}
	return rep, nil
}
