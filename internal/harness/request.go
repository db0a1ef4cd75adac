package harness

import (
	"fmt"

	"hintm/internal/fault"
	"hintm/internal/htm"
	"hintm/internal/sim"
	"hintm/internal/workloads"
)

// Request identifies one simulation the harness can run: a point in the
// (workload × scale × HTM × hint-mode × SMT) grid plus the seed and fault
// plan it runs under — a run's whole identity. It is a comparable value
// type and, once resolved against the Runner's options, is used directly as
// the scheduler's memoization key — two figures or hypotheses asking for
// the same Request share a single run. Adding a config dimension means
// adding a field here; the compiler then points at every construction site.
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
	// Seed drives the run's PRNG streams (0 = the Runner's Options.Seed).
	Seed uint64
	// Faults is the run's fault-injection plan (the zero plan = the
	// Runner's Options.Faults).
	//
	// Seed and Faults never appear in String, which names the cell's
	// coordinates alone: a hypothesis's FINDINGS.md lists its seeds apart
	// from its base request.
	Faults fault.Plan
}

// normalize maps the zero SMT value to 1 so that Request{..., SMT: 0} and
// the equivalent explicit single-threaded request share one cache slot.
func (q Request) normalize() Request {
	if q.SMT <= 0 {
		q.SMT = 1
	}
	return q
}

// resolve normalizes q and fills a zero Seed or Faults from the Runner's
// options, so Request{Seed: 0} and Request{Seed: opts.Seed} share one
// flight, one store key and one result.
func (r *Runner) resolve(q Request) Request {
	q = q.normalize()
	if q.Seed == 0 {
		q.Seed = r.opts.Seed
	}
	if q.Faults == (fault.Plan{}) {
		q.Faults = r.opts.Faults
	}
	return q
}

// profiled reports whether q is Fig. 1's opportunity cell for its workload
// and scale (InfCap, baseline hints, SMT 1): the one request whose run
// carries the sharing profiler and whose report is memoized and stored
// with its result, whichever figure or client asks for it first. It
// compares coordinates only: the cell is profiled under any seed or plan.
func (q Request) profiled() bool {
	q.Seed, q.Faults = 0, fault.Plan{}
	return q.normalize() == req(q.Workload, q.Scale, sim.HTMInfCap, sim.HintNone)
}

// String renders the request's coordinates: a RequestError names its
// failed run by them, and each hypothesis's FINDINGS.md its base request.
// Each override only appears when set, so default requests render exactly
// as before and committed findings keep their bytes.
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

// family maps q to the key of its family: the requests whose runs may be
// one and the same run (see proves). Members are equal in every field
// except the static bit of Hints and, among the tracker kinds whose only
// bound is the P8 buffer (P8, P8S, InfCap), HTM with its P8Entries and
// SigBits. q must be resolved.
func (q Request) family() Request {
	switch q.Hints {
	case sim.HintStatic:
		q.Hints = sim.HintNone
	case sim.HintFull:
		q.Hints = sim.HintDynamic
	}
	switch q.HTM {
	case sim.HTMP8, sim.HTMP8S, sim.HTMInfCap:
		q.HTM, q.P8Entries, q.SigBits = sim.HTMInfCap, 0, 0
	}
	return q
}

// entries is the P8 buffer size q's machine gets.
func (q Request) entries() int {
	if q.P8Entries != 0 {
		return q.P8Entries
	}
	return sim.DefaultConfig().P8Entries
}

// proves reports whether src's completed run — its result and facts — is
// also dst's run, for two members of one family. Two conditions make it so
// (DESIGN.md §9 gives the induction):
//
//   - the static bits match, or src executed no static-safe access inside a
//     transaction or under the fallback lock, the only place the static
//     hint acts; and
//   - the trackers match, or src never met a bound (InfCap, or a P8/P8S
//     with no capacity abort whose attempts all fit its buffer) and dst's
//     buffer holds every attempt src tracked (InfCap, or a P8/P8S with at
//     least MaxTracked entries): a buffer that never fills behaves as
//     InfCap's unbounded precise set, and a signature that never receives
//     a block matches nothing.
func proves(src, dst Request, res *sim.Result, f sim.Facts) bool {
	if src.Hints.Static() != dst.Hints.Static() && f.StaticHintUses != 0 {
		return false
	}
	if src.HTM == dst.HTM && src.P8Entries == dst.P8Entries && src.SigBits == dst.SigBits {
		return true
	}
	unbound := src.HTM == sim.HTMInfCap ||
		(res.Aborts[htm.AbortCapacity] == 0 && f.MaxTracked <= src.entries())
	return unbound && (dst.HTM == sim.HTMInfCap || dst.entries() >= f.MaxTracked)
}
