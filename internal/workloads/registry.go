package workloads

import (
	"fmt"
	"sort"

	"hintm/internal/ir"
)

// Spec describes one benchmark in the suite.
type Spec struct {
	Name string
	// DefaultThreads follows the paper: 4 for genome and yada (poor
	// scalability beyond), 8 for everything else.
	DefaultThreads int
	// Build constructs the TIR module for the given thread count and scale.
	Build func(threads int, scale Scale) *ir.Module
	// Description summarizes the kernel and the paper-relevant property it
	// reproduces.
	Description string
	// Extra marks workloads beyond the paper's suite (TM microbenchmarks);
	// they are excluded from the paper-figure sweeps.
	Extra bool
}

var registry = map[string]*Spec{}

func register(s *Spec) {
	if _, dup := registry[s.Name]; dup {
		panic("workloads: duplicate " + s.Name)
	}
	registry[s.Name] = s
}

// All returns the paper's workload suite, sorted by name.
func All() []*Spec {
	out := make([]*Spec, 0, len(registry))
	for _, s := range registry {
		if !s.Extra {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the sorted workload names.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return names
}

// ByName looks a workload up.
func ByName(name string) (*Spec, error) {
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q (have %v)", name, Names())
	}
	return s, nil
}

// BuildDefault builds the module at the paper's thread count.
func (s *Spec) BuildDefault(scale Scale) *ir.Module {
	return s.Build(s.DefaultThreads, scale)
}
