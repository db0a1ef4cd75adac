package harness

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hintm/internal/fault"
	"hintm/internal/sim"
	"hintm/internal/workloads"
)

// The behaviour pin. testdata/golden.txt records, for every cell below,
// the SHA-256 of its Result JSON next to its cycles, commits, fallback
// commits and aborts by reason (sim.Result.String), under the simulator's
// model version. It has two sections:
//
//   - small: every cell of the quick-scale figure grid (QuickOptions, seed
//     1), and every workload under each goldenConfigs entry at seeds 1
//     and 2;
//   - large: every workload under each goldenConfigs entry at large scale,
//     seed 1, the scale where the paper's headlines hold. A change can move
//     it and leave the small section byte-identical.
//
// Any drift fails the test. A deliberate move bumps sim.ModelVersion and
// regenerates the file:
//
//	go test ./internal/harness -run TestGolden -update
//
// so `git diff <rev> -- internal/harness/testdata/golden.txt` shows which
// cells moved between two commits, and by how much.
var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current simulator")

const goldenPath = "testdata/golden.txt"

// goldenConfigs are the machine configurations every workload is pinned
// under at both scales: P8 without and with hints, P8S, Fig. 8's L1TM cell
// (every core shared), InfCap and the STM.
var goldenConfigs = []struct {
	htm   sim.HTMKind
	hints sim.HintMode
	smt   int
}{
	{sim.HTMP8, sim.HintNone, 1},
	{sim.HTMP8, sim.HintFull, 1},
	{sim.HTMP8S, sim.HintFull, 1},
	{sim.HTML1TM, sim.HintFull, 2},
	{sim.HTMInfCap, sim.HintNone, 1},
	{sim.HTMSTM, sim.HintFull, 1},
}

// goldenCell is one pinned run.
type goldenCell struct {
	req  Request // resolved
	res  *sim.Result
	name string // req.String() plus the seed
	line string // name, Result JSON SHA-256, Result.String()
}

// goldenCells runs every pinned cell on one runner (the large section
// only when large) and returns them sorted by name.
func goldenCells(t *testing.T, large bool) []goldenCell {
	t.Helper()
	r := NewRunner(QuickOptions())
	ctx := context.Background()
	sum, err := r.BenchResults(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := sum.Err(); err != nil {
		t.Fatalf("figure grid degraded: %v", err)
	}
	var reqs []Request
	for _, spec := range workloads.All() {
		for _, c := range goldenConfigs {
			q := Request{Workload: spec.Name, Scale: workloads.Small, HTM: c.htm, Hints: c.hints, SMT: c.smt}
			for _, seed := range []uint64{1, 2} {
				q.Seed = seed
				reqs = append(reqs, q)
			}
			if large {
				q.Scale, q.Seed = workloads.Large, 1
				reqs = append(reqs, q)
			}
		}
	}
	if _, err := r.RunAll(ctx, reqs); err != nil {
		t.Fatal(err)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	cells := make([]goldenCell, 0, len(r.runs))
	for q, f := range r.runs {
		if q.Faults != (fault.Plan{}) {
			t.Fatalf("%v: a pinned cell runs under faults %v", q, q.Faults)
		}
		js, err := json.Marshal(f.val.res)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%v/seed%d", q, q.Seed)
		line := fmt.Sprintf("%s %x %v", name, sha256.Sum256(js), f.val.res)
		cells = append(cells, goldenCell{q, f.val.res, name, line})
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].name < cells[j].name })
	st := r.Stats()
	t.Logf("%d cells: %d simulated, %d derived", len(cells), st.SimRuns, st.Derived)
	return cells
}

// readGolden parses the golden file: the model version its header names,
// and each cell's line keyed by the cell's name. The section headers are
// for the reader; a name carries its scale.
func readGolden() (model int, lines map[string]string, err error) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return 0, nil, err
	}
	lines = make(map[string]string)
	for _, l := range strings.Split(string(data), "\n") {
		switch {
		case l == "" || strings.HasPrefix(l, "#") || strings.HasPrefix(l, "["):
		case strings.HasPrefix(l, "model "):
			if _, err := fmt.Sscanf(l, "model %d", &model); err != nil {
				return 0, nil, fmt.Errorf("%s: %q: %v", goldenPath, l, err)
			}
		default:
			name, _, _ := strings.Cut(l, " ")
			lines[name] = l
		}
	}
	return model, lines, nil
}

// writeGolden writes the cells' lines under a header naming the model
// version, one section per scale.
func writeGolden(cells []goldenCell) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Behaviour pin: each cell's Result JSON SHA-256 and counts (see golden_test.go).\nmodel %d\n", sim.ModelVersion)
	for _, sec := range []workloads.Scale{workloads.Small, workloads.Large} {
		fmt.Fprintf(&sb, "\n[%v]\n", sec)
		for _, c := range cells {
			if c.req.Scale == sec {
				sb.WriteString(c.line + "\n")
			}
		}
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath, []byte(sb.String()), 0o644)
}

// TestGolden checks every pinned cell against testdata/golden.txt, and
// that every transaction commits exactly once: cells that run the same
// program (workload, scale, seed and thread count) agree on Commits +
// FallbackCommits whatever the HTM, hints or SMT, so a commit lost or
// doubled on a retry or fallback path fails here. The large section is
// skipped under -race, where it would take minutes.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure grid; skipped in -short mode")
	}
	if *update && raceEnabled {
		t.Fatal("-update rewrites both sections; run it without -race")
	}
	cells := goldenCells(t, !raceEnabled)

	type program struct {
		workload string
		scale    workloads.Scale
		seed     uint64
		threads  int
	}
	first := make(map[program]goldenCell)
	for _, c := range cells {
		spec, err := workloads.ByName(c.req.Workload)
		if err != nil {
			t.Fatal(err)
		}
		p := program{c.req.Workload, c.req.Scale, c.req.Seed, spec.DefaultThreads * c.req.SMT}
		f, ok := first[p]
		if !ok {
			first[p] = c
		} else if a, b := f.res.Commits+f.res.FallbackCommits, c.res.Commits+c.res.FallbackCommits; a != b {
			t.Errorf("one program, two transaction counts: %s commits %d, %s commits %d", f.name, a, c.name, b)
		}
	}

	model, want, err := readGolden()
	if *update {
		if t.Failed() {
			t.Fatal("not rewriting the golden over a lost or doubled commit")
		}
		moved := 0
		for _, c := range cells {
			if w, ok := want[c.name]; ok && model == sim.ModelVersion && strings.Fields(w)[1] != strings.Fields(c.line)[1] {
				moved++
				t.Errorf("moved under model %d:\n  golden: %s\n  got:    %s", model, w, c.line)
			}
		}
		if moved > 0 {
			t.Fatalf("%d cells moved: bump sim.ModelVersion, then regenerate", moved)
		}
		if err := writeGolden(cells); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cells, model %d)", goldenPath, len(cells), sim.ModelVersion)
		return
	}
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if model != sim.ModelVersion {
		t.Fatalf("golden records model %d, the simulator is model %d: regenerate with -update", model, sim.ModelVersion)
	}
	got := make(map[string]bool, len(cells))
	for _, c := range cells {
		got[c.name] = true
		switch w, ok := want[c.name]; {
		case !ok:
			t.Errorf("unpinned cell (regenerate with -update if intended):\n  %s", c.line)
		case w != c.line:
			t.Errorf("result drifted:\n  golden: %s\n  got:    %s", w, c.line)
		}
	}
	for name, w := range want {
		if !got[name] && (!raceEnabled || !strings.Contains(name, "/large/")) {
			t.Errorf("pinned cell vanished:\n  %s", w)
		}
	}
}
