package harness

import (
	"fmt"

	"hintm/internal/sim"
	"hintm/internal/workloads"
)

// Request identifies one simulation the harness can run: a point in the
// (workload × scale × HTM × hint-mode × SMT) grid. It is a comparable value
// type and is used directly as the scheduler's memoization key — two
// figures asking for the same Request share a single run. Adding a config
// dimension means adding a field here; the compiler then points at every
// construction site, where the old fmt.Sprintf string keys would silently
// collide.
type Request struct {
	// Workload names a registered workload (see workloads.ByName).
	Workload string
	// Scale selects the input size.
	Scale workloads.Scale
	// HTM selects the baseline HTM configuration.
	HTM sim.HTMKind
	// Hints selects the HinTM mode.
	Hints sim.HintMode
	// SMT is the hardware threads per core (0 is normalized to 1).
	SMT int
	// SigBits overrides the P8S read-signature size in bits (0 = the
	// config default, 1024 per the paper). Only meaningful with HTM=P8S;
	// the hypothesis framework sweeps it to measure signature-aliasing
	// false conflicts. Zero keeps the store-key preimage unchanged, so
	// every pre-existing store entry stays addressable.
	SigBits uint64
	// P8Entries overrides the P8/P8S transactional buffer's entry count
	// (0 = Table II's 64).
	P8Entries int
	// CapacityRetries grants a capacity-aborted transaction this many HTM
	// retries before it falls back to the lock (0 = the paper's policy:
	// fall back at once).
	CapacityRetries int
	// PageCostPct scales the page-mode transition costs — the minor fault
	// and both TLB-shootdown costs — to this percentage of Table II's
	// (0 = 100%, the Table II costs).
	//
	// Like SigBits, the three overrides above only enter the store-key
	// preimage and String when set.
	PageCostPct int
}

// Result is the statistics bundle one simulation produces. It aliases
// sim.Result so harness callers can stay within this package's vocabulary.
type Result = sim.Result

// normalize maps the zero SMT value to 1 so that Request{..., SMT: 0} and
// the equivalent explicit single-threaded request share one cache slot.
func (q Request) normalize() Request {
	if q.SMT <= 0 {
		q.SMT = 1
	}
	return q
}

// profiled reports whether q is Fig. 1's opportunity cell for its workload
// and scale (InfCap, baseline hints, SMT 1): the one request whose run
// carries the sharing profiler and whose report is memoized and stored
// with its result, whichever figure or client asks for it first.
func (q Request) profiled() bool {
	return q.normalize() == req(q.Workload, q.Scale, sim.HTMInfCap, sim.HintNone)
}

// String renders the request for error messages and logs. Each override
// only appears when set, so default requests render (and name their trace
// artifacts) exactly as before.
func (q Request) String() string {
	q = q.normalize()
	s := fmt.Sprintf("%s/%v/%v/%v/smt%d", q.Workload, q.Scale, q.HTM, q.Hints, q.SMT)
	if q.SigBits != 0 {
		s += fmt.Sprintf("/sig%d", q.SigBits)
	}
	if q.P8Entries != 0 {
		s += fmt.Sprintf("/p8e%d", q.P8Entries)
	}
	if q.CapacityRetries != 0 {
		s += fmt.Sprintf("/capretry%d", q.CapacityRetries)
	}
	if q.PageCostPct != 0 {
		s += fmt.Sprintf("/pagecost%dpct", q.PageCostPct)
	}
	return s
}
