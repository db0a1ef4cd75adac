// Package fault implements a deterministic, seeded fault-injection engine
// for the simulator. Real HTMs suffer aborts the paper's clean model never
// generates — POWER8 and TSX transactions die on timer interrupts and TLB
// misses. The engine injects those aborts into a run the same way the
// classify fuzzer injects hostile programs into the compiler: as a
// validation harness for the abort/rollback/fallback recovery machinery.
//
// Every decision is drawn from per-context xorshift streams seeded from the
// simulation seed, so a fault campaign replays bit-identically: same plan +
// same seed + same program ⇒ same injected faults. Each context draws only
// at its own transaction begins and transactional accesses, so the
// decisions do not depend on how the scheduler interleaves contexts.
//
// Fault classes:
//
//   - Spurious transaction aborts (Plan.SpuriousProb): with the given
//     per-attempt probability, a transaction is doomed at begin to abort
//     after a bounded random number of transactional accesses, modeling
//     interrupt- and TLB-miss-induced aborts (htm.AbortSpurious).
//   - Injected worker panic (Plan.PanicTx): the engine panics at the Nth
//     transaction begin, machine-wide — the hook the harness degradation
//     tests use to prove one crashed run cannot take down a figure grid.
package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// Plan declares which faults a run injects. The zero Plan injects nothing.
// All fields are scalars so a Plan can ride inside sim.Config by value.
type Plan struct {
	// SpuriousProb is the per-transaction-attempt probability in [0,1] that
	// the attempt suffers a spurious abort.
	SpuriousProb float64
	// SpuriousWindow bounds how many transactional accesses a doomed attempt
	// performs before the injected abort fires (0 = default 32).
	SpuriousWindow int
	// PanicTx, when non-zero, panics at the PanicTx-th transaction begin
	// counted machine-wide — deterministic worker-crash injection.
	PanicTx uint64
}

// Enabled reports whether the plan injects anything.
func (p Plan) Enabled() bool {
	return p.SpuriousProb > 0 || p.PanicTx > 0
}

// Validate rejects out-of-range (or NaN) probabilities and negative knobs.
func (p Plan) Validate() error {
	if !(p.SpuriousProb >= 0 && p.SpuriousProb <= 1) {
		return fmt.Errorf("fault: spurious probability %v outside [0,1]", p.SpuriousProb)
	}
	if p.SpuriousWindow < 0 {
		return fmt.Errorf("fault: negative plan knob: %+v", p)
	}
	return nil
}

// String renders the plan in ParsePlan's syntax (empty for the zero plan).
func (p Plan) String() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	if p.SpuriousProb > 0 {
		add("spurious", strconv.FormatFloat(p.SpuriousProb, 'g', -1, 64))
	}
	if p.SpuriousWindow > 0 {
		add("spurious-window", strconv.Itoa(p.SpuriousWindow))
	}
	if p.PanicTx > 0 {
		add("panic-tx", strconv.FormatUint(p.PanicTx, 10))
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses the CLI fault spec: comma-separated key=value pairs, e.g.
// "spurious=0.01,spurious-window=8,panic-tx=500".
// The empty string is the zero (disabled) plan.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Plan{}, fmt.Errorf("fault: bad spec entry %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "spurious":
			p.SpuriousProb, err = strconv.ParseFloat(v, 64)
		case "spurious-window":
			p.SpuriousWindow, err = strconv.Atoi(v)
		case "panic-tx":
			p.PanicTx, err = strconv.ParseUint(v, 10, 64)
		default:
			return Plan{}, fmt.Errorf("fault: unknown spec key %q (have [panic-tx spurious spurious-window])", k)
		}
		if err != nil {
			return Plan{}, fmt.Errorf("fault: bad value for %q: %v", k, err)
		}
	}
	return p, p.Validate()
}

// InjectedPanic is the value the engine panics with at Plan.PanicTx, typed
// so recovery layers can tell an injected crash from a genuine bug.
type InjectedPanic struct {
	// Tx is the machine-wide transaction ordinal that triggered the panic.
	Tx uint64
}

func (p InjectedPanic) Error() string {
	return fmt.Sprintf("fault: injected panic at transaction %d", p.Tx)
}

// Engine draws injection decisions for one machine. It is not safe for
// concurrent use; the simulator is single-goroutine by construction.
type Engine struct {
	plan Plan

	// streams holds one xorshift64 state per hardware context, decoupled
	// from the interpreter's per-thread streams so injecting faults never
	// perturbs program-visible randomness.
	streams []uint64
	// countdown[ctx] is the number of transactional accesses until the armed
	// spurious abort fires (0 = not armed).
	countdown []int64

	txCount uint64
}

// NewEngine builds an engine for nContexts hardware contexts. Distinct
// mixing constants keep its streams uncorrelated with interp's thread RNGs
// even though both derive from the same simulation seed.
func NewEngine(plan Plan, seed uint64, nContexts int) *Engine {
	e := &Engine{
		plan:      plan,
		streams:   make([]uint64, nContexts),
		countdown: make([]int64, nContexts),
	}
	if e.plan.SpuriousWindow <= 0 {
		e.plan.SpuriousWindow = 32
	}
	for i := range e.streams {
		e.streams[i] = seed*0x94D049BB133111EB + uint64(i)*0xDA942042E4DD58B5 + 0x632BE59BD9B4E019
	}
	return e
}

func (e *Engine) next(ctx int) uint64 {
	x := e.streams[ctx]
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	e.streams[ctx] = x
	return x
}

// draw returns true with probability p on ctx's stream. A probability of 0
// consumes no randomness, so a plan without spurious aborts draws nothing.
func (e *Engine) draw(ctx int, p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(e.next(ctx)>>11)/(1<<53) < p
}

// TxBegun records a transaction begin on ctx: it advances the machine-wide
// transaction counter (panicking at Plan.PanicTx) and arms the spurious
// countdown for this attempt.
func (e *Engine) TxBegun(ctx int) {
	e.txCount++
	if e.plan.PanicTx > 0 && e.txCount == e.plan.PanicTx {
		panic(InjectedPanic{Tx: e.txCount})
	}
	e.countdown[ctx] = 0
	if e.draw(ctx, e.plan.SpuriousProb) {
		e.countdown[ctx] = 1 + int64(e.next(ctx)%uint64(e.plan.SpuriousWindow))
	}
}

// SpuriousAbortNow reports whether the armed spurious abort fires on this
// transactional access.
func (e *Engine) SpuriousAbortNow(ctx int) bool {
	if e.countdown[ctx] == 0 {
		return false
	}
	e.countdown[ctx]--
	return e.countdown[ctx] == 0
}
