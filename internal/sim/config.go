// Package sim assembles the full simulated machine of the paper's
// methodology (§V): an 8-core (optionally 2-way SMT) SMP with private L1s, a
// shared L2, snoopy MESI coherence, one HTM controller per hardware context
// (P8 / P8S / L1TM / InfCap), and HinTM's translation subsystem. It executes
// TIR programs deterministically, interleaving hardware contexts in cycle
// order, and produces the per-run statistics the experiment harness turns
// into the paper's figures.
package sim

import (
	"fmt"

	"hintm/internal/cache"
	"hintm/internal/fault"
	"hintm/internal/obs"
	"hintm/internal/vmem"
)

// HTMKind selects the baseline HTM configuration (paper §V).
type HTMKind uint8

// Baseline HTMs.
const (
	// HTMP8: POWER8-style dedicated 64-entry fully-associative buffer.
	HTMP8 HTMKind = iota
	// HTMP8S: P8 plus a 1-kbit PBX read signature.
	HTMP8S
	// HTML1TM: transactional state tracked in the 32KB 8-way L1.
	HTML1TM
	// HTMInfCap: unbounded tracking (capacity-abort-free upper bound).
	HTMInfCap
	// HTMSTM: an eager lock-based software TM baseline (TinySTM-style):
	// unbounded software bookkeeping (no capacity aborts) but a per-access
	// read/write barrier cost — the §II-A trade-off HTM exists to avoid.
	// HinTM's hints elide barriers for safe accesses, reproducing the STM
	// optimizations the paper cites as its lineage (§II-C).
	HTMSTM
)

func (k HTMKind) String() string {
	switch k {
	case HTMP8:
		return "P8"
	case HTMP8S:
		return "P8S"
	case HTML1TM:
		return "L1TM"
	case HTMInfCap:
		return "InfCap"
	case HTMSTM:
		return "STM"
	}
	return fmt.Sprintf("htm(%d)", uint8(k))
}

// ParseHTMKind parses the command-line spelling of a baseline HTM
// ("p8", "p8s", "l1tm", "infcap", "stm").
func ParseHTMKind(s string) (HTMKind, error) {
	switch s {
	case "p8":
		return HTMP8, nil
	case "p8s":
		return HTMP8S, nil
	case "l1tm":
		return HTML1TM, nil
	case "infcap":
		return HTMInfCap, nil
	case "stm":
		return HTMSTM, nil
	}
	return 0, fmt.Errorf("unknown HTM %q (want p8|p8s|l1tm|infcap|stm)", s)
}

// HintMode selects which HinTM classification mechanisms are honoured.
type HintMode uint8

// Hint modes (paper §V's HinTM-st / HinTM-dyn / HinTM).
const (
	HintNone HintMode = iota
	HintStatic
	HintDynamic
	HintFull
)

func (h HintMode) String() string {
	switch h {
	case HintNone:
		return "baseline"
	case HintStatic:
		return "HinTM-st"
	case HintDynamic:
		return "HinTM-dyn"
	case HintFull:
		return "HinTM"
	}
	return fmt.Sprintf("hint(%d)", uint8(h))
}

// ParseHintMode parses the command-line spelling of a hint mode
// ("none", "st", "dyn", "full").
func ParseHintMode(s string) (HintMode, error) {
	switch s {
	case "none":
		return HintNone, nil
	case "st":
		return HintStatic, nil
	case "dyn":
		return HintDynamic, nil
	case "full":
		return HintFull, nil
	}
	return 0, fmt.Errorf("unknown hint mode %q (want none|st|dyn|full)", s)
}

// Static reports whether compiler hints are honoured.
func (h HintMode) Static() bool { return h == HintStatic || h == HintFull }

// Dynamic reports whether runtime page classification is active.
func (h HintMode) Dynamic() bool { return h == HintDynamic || h == HintFull }

// Config parameterizes a machine (defaults follow paper Table II and §V).
type Config struct {
	// Cores and SMT define hardware contexts (Cores × SMT).
	Cores int
	SMT   int

	HTM   HTMKind
	Hints HintMode

	// P8Entries sizes the dedicated transactional buffer.
	P8Entries int
	// SigBits/SigHashes size the P8S read signature.
	SigBits   uint64
	SigHashes int

	Cache cache.Config
	VM    vmem.Costs
	// TLBEntries per hardware context.
	TLBEntries int

	// MaxConflictRetries before a conflicting TX falls back to the lock.
	MaxConflictRetries int
	// CapacityRetries lets a capacity-aborted TX retry in HTM mode before
	// falling back. The paper argues this is futile (the TX will overflow
	// again); the default of 0 follows the paper, and the
	// capacity-retry-futility hypothesis tests the claim.
	CapacityRetries int
	// BackoffBase is the exponential-backoff unit after conflict aborts.
	BackoffBase int64
	// TxBeginCost/TxCommitCost are the begin/commit instruction overheads.
	TxBeginCost, TxCommitCost int64
	// STMReadBarrier/STMWriteBarrier are the per-access software
	// instrumentation costs under the HTMSTM baseline.
	STMReadBarrier, STMWriteBarrier int64
	// AbortFixedCost is the abort-handler overhead; undo-log restoration
	// additionally costs L1Latency per entry.
	AbortFixedCost int64
	// FallbackPollCost is charged per failed fallback-lock poll.
	FallbackPollCost int64

	// Seed drives the per-thread PRNG streams.
	Seed uint64
	// MaxSteps aborts runaway simulations (0 = default guard).
	MaxSteps int64
	// MaxCycles hard-caps the simulated clock: a run whose furthest context
	// clock exceeds it stops with a CycleLimitError (0 = no cap). Unlike
	// MaxSteps (an implementation guard against interpreter runaway), this
	// bounds *simulated time*, the natural budget for hand-written .tir
	// programs.
	MaxCycles int64
	// WatchdogCycles arms the livelock watchdog: if no transaction commits
	// (HTM or via fallback) and no fallback lock is acquired for this many
	// simulated cycles while transactional work is pending, the run stops
	// with a LivelockError carrying a per-context diagnostic snapshot
	// (0 = watchdog off).
	WatchdogCycles int64
	// Faults is the fault-injection plan (zero value = no injection).
	Faults fault.Plan

	// Tracer receives cycle-timestamped observability events: transaction
	// spans, instant events (page transitions, shootdowns, evictions,
	// injected faults), and periodic counter samples. nil is the disabled
	// fast path: every emission site is one nil check and the access hot
	// path allocates nothing (see internal/obs).
	Tracer obs.Tracer
	// SampleCycles is the counter-sample period in simulated cycles; a
	// sample is emitted each time a context clock crosses the next multiple
	// (0 = sampling off). Only meaningful with a Tracer attached.
	SampleCycles int64
}

// DefaultConfig returns the paper's P8 baseline on 8 cores.
func DefaultConfig() Config {
	return Config{
		Cores:              8,
		SMT:                1,
		HTM:                HTMP8,
		Hints:              HintNone,
		P8Entries:          64,
		SigBits:            1024,
		SigHashes:          2,
		Cache:              cache.DefaultConfig(8),
		VM:                 vmem.DefaultCosts(),
		TLBEntries:         64,
		MaxConflictRetries: 4,
		BackoffBase:        64,
		TxBeginCost:        4,
		TxCommitCost:       8,
		STMReadBarrier:     12,
		STMWriteBarrier:    20,
		AbortFixedCost:     40,
		FallbackPollCost:   50,
		Seed:               1,
		MaxSteps:           2_000_000_000,
	}
}

// MaxSigBits bounds Config.SigBits. Every hardware context allocates
// SigBits/64 signature words, so an unbounded size exhausts host memory
// before the run starts; 1<<20 bits (128 KiB per context) keeps the
// 1024-bit default and every swept size well inside.
const MaxSigBits = 1 << 20

// Contexts returns the hardware context count.
func (c Config) Contexts() int { return c.Cores * c.SMT }

// SizeFor sizes the machine for threads software threads, the one rule
// every entry point shares. With SMT > 1 the machine has ceil(threads/SMT)
// cores, so every core is shared: the paper's Fig. 8 methodology runs the
// 8 threads of genome or yada on 4 dual-threaded cores, generating the L1
// pressure SMT exists to show. Otherwise the machine grows to the fewest
// cores that hold every thread. The cache hierarchy is sized to match.
// threads <= 0, or an SMT below 1 (which validate rejects), leaves c as
// configured.
func (c *Config) SizeFor(threads int) {
	if threads <= 0 || c.SMT < 1 || (c.SMT == 1 && threads <= c.Cores) {
		return
	}
	c.Cores = (threads + c.SMT - 1) / c.SMT
	c.Cache = cache.DefaultConfig(c.Cores)
}

// validate checks internal consistency.
func (c Config) validate() error {
	if c.Cores <= 0 || c.SMT <= 0 {
		return fmt.Errorf("sim: bad core/SMT config %d×%d", c.Cores, c.SMT)
	}
	if c.P8Entries <= 0 && (c.HTM == HTMP8 || c.HTM == HTMP8S) {
		return fmt.Errorf("sim: P8 buffer needs entries")
	}
	if c.SigBits < 1 || c.SigBits > MaxSigBits {
		return fmt.Errorf("sim: signature size %d bits outside 1..%d", c.SigBits, MaxSigBits)
	}
	if c.Cache.Cores != c.Cores {
		return fmt.Errorf("sim: cache config is for %d cores, machine has %d",
			c.Cache.Cores, c.Cores)
	}
	if err := c.Cache.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.MaxCycles < 0 || c.WatchdogCycles < 0 {
		return fmt.Errorf("sim: negative cycle limit (max-cycles %d, watchdog %d)",
			c.MaxCycles, c.WatchdogCycles)
	}
	if c.SampleCycles < 0 {
		return fmt.Errorf("sim: negative sample period %d", c.SampleCycles)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}
