package main

import (
	"time"

	"hintm/internal/cache"
	"hintm/internal/htm"
	"hintm/internal/mem"
	"hintm/internal/sim"
	"hintm/internal/vmem"
)

// A layer replay isolates one layer's host cost: the P8/baseline cell's
// memory-access and transaction stream is recorded through the public
// profiler hook, then fed through a fresh vmem.Manager, cache.Hierarchy and
// set of P8-tracker htm.Controllers, each timed on its own. Comparing the
// replayed event counts with the simulator's own shows the replay models
// the layer faithfully enough for its timings to mean something.

// maxEvents caps one recorded stream (8 bytes per event, 64 MB at the cap).
const maxEvents = 1 << 23

// Event kinds, stored in the top bits of a packed event.
const (
	evRead = iota
	evWrite
	evBegin
	evCommit
	evAbort
)

const (
	addrBits = 48 // simulated addresses stay below 2^48 (mem.StackBase is 0x7000_0000_0000)
	tidBits  = 8
	addrMask = 1<<addrBits - 1
	tidMask  = 1<<tidBits - 1
)

// recorder is a sim.Profiler and sim.TxObserver that packs each event into
// one word: kind | tid | address.
type recorder struct {
	events    []uint64
	truncated bool
}

var (
	_ sim.Profiler   = (*recorder)(nil)
	_ sim.TxObserver = (*recorder)(nil)
)

func (r *recorder) add(kind int, tid int, addr uint64) {
	if len(r.events) >= maxEvents {
		r.truncated = true
		return
	}
	r.events = append(r.events, uint64(kind)<<(addrBits+tidBits)|uint64(tid&tidMask)<<addrBits|addr&addrMask)
}

// OnAccess implements sim.Profiler.
func (r *recorder) OnAccess(tid int, addr mem.Addr, write, _ bool) {
	kind := evRead
	if write {
		kind = evWrite
	}
	r.add(kind, tid, uint64(addr))
}

// OnTxEvent implements sim.TxObserver.
func (r *recorder) OnTxEvent(tid int, ev sim.TxEventKind, _ htm.AbortReason) {
	switch ev {
	case sim.TxEventBegin:
		r.add(evBegin, tid, 0)
	case sim.TxEventCommit:
		r.add(evCommit, tid, 0)
	case sim.TxEventAbort:
		r.add(evAbort, tid, 0)
	}
}

func unpack(e uint64) (kind, tid int, addr mem.Addr) {
	return int(e >> (addrBits + tidBits)), int(e >> addrBits & tidMask), mem.Addr(e & addrMask)
}

// layerReplay is one layer's replay of a stream: its calls and their time,
// and a count the layer produced next to the simulator's own.
type layerReplay struct {
	calls               int
	took                time.Duration
	replayed, simulated uint64
}

// replayLayers names the layers replay drives, in the order of its result;
// the counts compared are TLB misses, L1 misses and capacity aborts.
var replayLayers = [3]string{"vmem", "cache", "htm"}

// replay runs a recorded stream of a machine with cfg (P8, no hints, one
// context per core) through each layer; res is the simulated cell's result.
// Threads map to hardware contexts as the simulator maps them: worker tid i
// runs on context i, and the main thread (tid = cfg.Contexts()) on context 0.
func replay(rec *recorder, cfg sim.Config, res *sim.Result) [3]layerReplay {
	var out [3]layerReplay
	mainTID := cfg.Contexts()
	ctxOf := func(tid int) int {
		if tid == mainTID {
			return 0
		}
		return tid
	}

	// Translation. The simulator flushes every TLB when a parallel region
	// starts; the stream shows a region start as the first worker access
	// after main-thread accesses.
	vm := vmem.New(cfg.Contexts(), cfg.TLBEntries, cfg.VM, cfg.Hints.Dynamic())
	start := time.Now()
	prevMain := false
	for _, e := range rec.events {
		kind, tid, addr := unpack(e)
		if kind > evWrite {
			continue
		}
		isMain := tid == mainTID
		if prevMain && !isMain {
			vm.ResetSharing()
		}
		prevMain = isMain
		vm.Access(ctxOf(tid), tid, addr.Page(), kind == evWrite)
		out[0].calls++
	}
	out[0].took = time.Since(start)
	out[0].replayed, out[0].simulated = vm.Stats().TLBMisses, res.VM.TLBMisses

	// Caches and coherence.
	h := cache.New(cfg.Cache)
	start = time.Now()
	for _, e := range rec.events {
		kind, tid, addr := unpack(e)
		if kind > evWrite {
			continue
		}
		h.Access(ctxOf(tid)%cfg.Cores, addr.Block(), kind == evWrite)
		out[1].calls++
	}
	out[1].took = time.Since(start)
	out[1].replayed, out[1].simulated = h.Stats().L1Misses, res.Cache.L1Misses
	h.Release()

	// Transactional tracking. Conflicts are not modelled: the recorded abort
	// events end the transactions the simulator aborted for other reasons.
	ctrls := make([]*htm.Controller, cfg.Contexts())
	for i := range ctrls {
		ctrls[i] = htm.NewController(htm.NewP8Tracker(cfg.P8Entries))
	}
	var capacity uint64
	start = time.Now()
	for _, e := range rec.events {
		kind, tid, addr := unpack(e)
		c := ctrls[ctxOf(tid)]
		switch kind {
		case evBegin:
			if c.Active() {
				c.Abort()
			}
			c.Begin()
		case evCommit:
			if c.Active() {
				c.Commit()
			}
		case evAbort:
			if c.Active() {
				c.Abort()
			}
		default:
			if !c.Active() {
				continue
			}
			out[2].calls++
			if c.Access(addr.Block(), addr.Page(), kind == evWrite, false) == htm.AbortCapacity {
				capacity++
				c.Abort()
			}
		}
	}
	out[2].took = time.Since(start)
	out[2].replayed, out[2].simulated = capacity, res.Aborts[htm.AbortCapacity]
	return out
}

// fidelity is a replayed count over the simulator's. Both zero is a perfect
// 1; a replayed count against a simulated zero reads 1 + replayed, which
// fails any window around 1.
func fidelity(replayed, simulated uint64) float64 {
	if simulated == 0 {
		return 1 + float64(replayed)
	}
	return float64(replayed) / float64(simulated)
}
