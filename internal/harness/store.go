package harness

import (
	"encoding/json"
	"fmt"

	"hintm/internal/htm"
	"hintm/internal/profile"
	"hintm/internal/sim"
	"hintm/internal/stats"
	"hintm/internal/store"
)

// The store hook makes every scheduled run a durable, content-addressed
// artifact: before a request simulates, the runner consults the configured
// result store; after it completes, the result is persisted. A warm store
// therefore makes figure regeneration a pure reduction — byte-identical to
// the cold run, asserted by TestStoreWarmRunByteIdentical — and two
// processes sharing a store directory (hintm-bench and hintm-exp, say)
// share one set of simulations.

// runKey is the canonical preimage of a request's store key. It captures
// every input that determines the run's result: the resolved request
// (seed and fault plan included) plus the runner options that still reach
// sim.Config (watchdog, cycle cap), all spelled as their
// stable string forms, prefixed with the store schema version. Field order
// is fixed by the struct, so json.Marshal is a canonical encoding.
type runKey struct {
	Schema          string `json:"schema"`
	Workload        string `json:"workload"`
	Scale           string `json:"scale"`
	HTM             string `json:"htm"`
	Hints           string `json:"hints"`
	SMT             int    `json:"smt"`
	SigBits         uint64 `json:"sigBits,omitempty"`
	P8Entries       int    `json:"p8Entries,omitempty"`
	CapacityRetries int    `json:"capacityRetries,omitempty"`
	PageCostPct     int    `json:"pageCostPct,omitempty"`
	Seed            uint64 `json:"seed"`
	Faults          string `json:"faults,omitempty"`
	WatchdogCycles  int64  `json:"watchdogCycles,omitempty"`
	MaxCycles       int64  `json:"maxCycles,omitempty"`
}

// KeyPreimage returns the canonical JSON encoding of req under the
// runner's options — the bytes whose SHA-256 is the request's store key.
func (r *Runner) KeyPreimage(req Request) []byte {
	req = r.resolve(req)
	k := runKey{
		Schema:          store.Schema,
		Workload:        req.Workload,
		Scale:           req.Scale.String(),
		HTM:             req.HTM.String(),
		Hints:           req.Hints.String(),
		SMT:             req.SMT,
		SigBits:         req.SigBits,
		P8Entries:       req.P8Entries,
		CapacityRetries: req.CapacityRetries,
		PageCostPct:     req.PageCostPct,
		Seed:            req.Seed,
		Faults:          req.Faults.String(),
		WatchdogCycles:  r.opts.WatchdogCycles,
		MaxCycles:       r.opts.MaxCycles,
	}
	data, err := json.Marshal(k)
	if err != nil {
		// A struct of strings and integers cannot fail to marshal.
		panic(fmt.Sprintf("harness: canonical key encoding: %v", err))
	}
	return data
}

// StoreKey returns req's content address under the runner's options. It is
// derivable with or without a configured store.
func (r *Runner) StoreKey(req Request) string {
	return store.Key(r.KeyPreimage(req))
}

// storeGet recalls req's cell from the configured store. Any failure —
// no store, miss, quarantined entry, undecodable result — degrades to
// (cell{}, false): the scheduler just simulates. A profiled request's entry
// without a report (written before reports were stored) is a miss too: the
// cell re-simulates once, and its rewrite carries the report.
func (r *Runner) storeGet(req Request) (cell, bool) {
	st := r.opts.Store
	if st == nil {
		return cell{}, false
	}
	e, _, err := st.Get(r.StoreKey(req))
	if err != nil || e == nil {
		return cell{}, false
	}
	var res sim.Result
	if err := json.Unmarshal(e.Result, &res); err != nil {
		return cell{}, false
	}
	c := cell{res: &res}
	if req.profiled() {
		c.prof = new(profile.Report)
		if json.Unmarshal(e.Profile, c.prof) != nil { // absent fails too
			return cell{}, false
		}
	}
	// Restore the invariants sim.newResult guarantees and plain JSON does
	// not: consumers index these without nil checks.
	if res.Aborts == nil {
		res.Aborts = make(map[htm.AbortReason]uint64)
	}
	if res.CyclesLost == nil {
		res.CyclesLost = make(map[htm.AbortReason]int64)
	}
	if res.TxFootprints == nil {
		res.TxFootprints = stats.NewHist()
	}
	return c, true
}

// storePut persists a completed run. Persistence failures are deliberately
// non-fatal: the simulation succeeded and its result is correct; a full
// disk should not fail the figure, only leave the run to be simulated again.
func (r *Runner) storePut(req Request, c cell) {
	st := r.opts.Store
	if st == nil {
		return
	}
	e := store.Entry{Request: r.KeyPreimage(req)}
	var err error
	if e.Result, err = json.Marshal(c.res); err == nil && c.prof != nil {
		e.Profile, err = json.Marshal(c.prof)
	}
	if err != nil {
		return
	}
	_, _ = st.Put(e)
}
