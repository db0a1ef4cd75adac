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

// String renders the request for error messages and logs. The signature
// override only appears when set, so default-signature requests render (and
// name their trace artifacts) exactly as before.
func (q Request) String() string {
	q = q.normalize()
	s := fmt.Sprintf("%s/%v/%v/%v/smt%d", q.Workload, q.Scale, q.HTM, q.Hints, q.SMT)
	if q.SigBits != 0 {
		s += fmt.Sprintf("/sig%d", q.SigBits)
	}
	return s
}
