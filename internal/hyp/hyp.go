// Package hyp is the hypothesis-driven experiment framework: the repo's
// methodology for stating claims about HinTM behavior as falsifiable,
// byte-reproducible experiments rather than ad-hoc figure grids.
//
// A hypothesis is a declarative Spec: a claim sentence, a base simulation
// Request, exactly one swept variable with named levels (the first level is
// the control), a seed set, headline-metric extractors, and a programmatic
// judge that turns the measured grid into a SUPPORTED / REFUTED /
// INCONCLUSIVE verdict with effect sizes. The Engine (engine.go) executes
// the one-variable-at-a-time grid — levels × seeds, each cell one
// simulation — through the existing harness.Runner machinery, so cells are
// deterministic, memoized, and content-addressed: a warm result store
// answers every cell without simulating, which is what makes the committed
// FINDINGS.md files (findings.go) cheap to re-verify byte-for-byte.
//
// Hypotheses register themselves (Register) from packages under the
// repository's hypotheses/ tree; cmd/hintm-exp lists and runs them, and
// that tree's TestFindings pins their committed findings.
package hyp

import (
	"fmt"
	"sort"
	"sync"

	"hintm/internal/harness"
	"hintm/internal/sim"
)

// Level is one value of a hypothesis's swept variable. Apply mutates the
// cell's request relative to the base — exactly one conceptual variable may
// move across a Spec's levels (one-variable-at-a-time is what makes the
// comparison table causal rather than correlational). A request is a run's
// whole identity, so a level can sweep a configuration override, the HTM,
// the hint mode or the fault plan, and nothing outside the request.
type Level struct {
	// Name labels the level in tables and verdicts (e.g. "sig=256").
	Name string
	// Apply perturbs the base request for this level; the engine has
	// already set the request's Scale and Seed. The control level's Apply
	// may be nil (run the base unchanged).
	Apply func(req *harness.Request)
}

// Metric is one headline metric extracted from each cell's simulation
// result.
type Metric struct {
	// Name heads the metric's comparison table (e.g. "cycles",
	// "false-conflict aborts / 1k commits").
	Name string
	// Format is the fmt verb rendering one value (e.g. "%.0f", "%.2f").
	// Fixed-precision formatting is part of the byte-reproducibility
	// contract.
	Format string
	// Extract reduces a cell's result to the metric value.
	Extract func(*sim.Result) float64
}

// Verdict is a judge's conclusion about a claim.
type Verdict int

// Verdicts. Inconclusive is deliberately the zero value: a judge that
// cannot establish anything (undefined effect sizes, no headroom to
// recover, zero event counts) reports it rather than guessing.
const (
	Inconclusive Verdict = iota
	Supported
	Refuted
)

func (v Verdict) String() string {
	switch v {
	case Supported:
		return "SUPPORTED"
	case Refuted:
		return "REFUTED"
	case Inconclusive:
		return "INCONCLUSIVE"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Outcome is a judge's verdict plus its one-line quantitative reason. The
// reason is rendered into FINDINGS.md, so it must be deterministic: build
// it from fixed-precision formatting of the evaluation's aggregates, never
// from map iteration or timing.
type Outcome struct {
	Verdict Verdict
	Reason  string
}

// Spec declares one hypothesis.
type Spec struct {
	// Name is the hypothesis's identifier and its directory name under
	// hypotheses/ (kebab-case).
	Name string
	// Claim is the falsifiable statement under test, as prose with
	// explicit thresholds — the judge encodes exactly this sentence.
	Claim string
	// Refs cites the work the claim derives from.
	Refs []string
	// Base is the control-cell request. Scale is filled in by the engine
	// from its options (-scale), so a hypothesis checks at any scale;
	// everything else is fixed across the grid except the swept variable.
	Base harness.Request
	// Variable names the single swept variable for tables and docs.
	Variable string
	// Levels are the variable's values; Levels[0] is the control every
	// effect size is measured against.
	Levels []Level
	// Seeds are the simulation seeds, all nonzero; every level runs once
	// per seed.
	Seeds []uint64
	// Metrics are the per-cell headline extractors.
	Metrics []Metric
	// Judge reduces the measured evaluation to a verdict.
	Judge func(*Evaluation) Outcome
}

// Validate reports the first structural problem with the spec.
func (s *Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("hyp: spec has no name")
	case s.Claim == "":
		return fmt.Errorf("hyp: %s: no claim", s.Name)
	case s.Base.Workload == "":
		return fmt.Errorf("hyp: %s: base request has no workload", s.Name)
	case s.Variable == "":
		return fmt.Errorf("hyp: %s: no swept variable name", s.Name)
	case len(s.Levels) < 2:
		return fmt.Errorf("hyp: %s: needs a control and at least one treatment level, have %d", s.Name, len(s.Levels))
	case len(s.Seeds) == 0:
		return fmt.Errorf("hyp: %s: no seeds", s.Name)
	case len(s.Metrics) == 0:
		return fmt.Errorf("hyp: %s: no metrics", s.Name)
	case s.Judge == nil:
		return fmt.Errorf("hyp: %s: no judge", s.Name)
	}
	seen := map[string]bool{}
	for i, l := range s.Levels {
		if l.Name == "" {
			return fmt.Errorf("hyp: %s: level %d has no name", s.Name, i)
		}
		if seen[l.Name] {
			return fmt.Errorf("hyp: %s: duplicate level %q", s.Name, l.Name)
		}
		seen[l.Name] = true
	}
	for _, seed := range s.Seeds {
		if seed == 0 {
			return fmt.Errorf("hyp: %s: seed 0 would mean the runner's seed; name every seed", s.Name)
		}
	}
	for i, m := range s.Metrics {
		if m.Name == "" || m.Format == "" || m.Extract == nil {
			return fmt.Errorf("hyp: %s: metric %d incomplete", s.Name, i)
		}
	}
	return nil
}

// Control returns the control level (Levels[0]).
func (s *Spec) Control() Level { return s.Levels[0] }

// ---- registry -----------------------------------------------------------

var (
	regMu    sync.Mutex
	registry = map[string]*Spec{}
)

// Register records a hypothesis; the hypotheses/ packages call it from
// init. Invalid or duplicate specs panic — a malformed hypothesis is a
// build-time bug, not a runtime condition.
func Register(s *Spec) {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic("hyp: duplicate hypothesis " + s.Name)
	}
	registry[s.Name] = s
}

// All returns every registered hypothesis sorted by name.
func All() []*Spec {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]*Spec, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName looks a hypothesis up.
func ByName(name string) (*Spec, error) {
	regMu.Lock()
	defer regMu.Unlock()
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("hyp: unknown hypothesis %q", name)
	}
	return s, nil
}
