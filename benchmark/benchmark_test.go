package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"hintm/internal/vmem"
	"hintm/internal/workloads"
)

// benchmarkFile is the part of BENCHMARK.json the tests check the code
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json's workloads and metrics
// (names, units, order) to the ones the command runs and emits.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, workloadNames)
	}
	check := func(kind string, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(file), len(code))
		}
		for i := 0; i < len(file) && i < len(code); i++ {
			if file[i].Name != code[i].name || file[i].Unit != code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the code %s (%s)",
					kind, i, file[i].Name, file[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// smallOptions runs a workload once at small scale, traced, inside the
// test's temporary directory.
func smallOptions(t *testing.T, workload string) options {
	t.Setenv("TMPDIR", t.TempDir())
	return options{
		workload: workload,
		seed:     1,
		trace:    true,
		traceDir: t.TempDir(),
		scale:    workloads.Small,
	}
}

// TestWorkloadsEmitEveryMetric runs every workload's untraced and traced
// paths at small scale and checks that every metric BENCHMARK.json names
// comes out finite, that every output check passes, and that the layers
// each workload was chosen for are the ones it exercises.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			opt := smallOptions(t, name)
			o, err := run(context.Background(), opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(o.problems) > 0 || o.failed > 0 || o.attempted == 0 {
				t.Fatalf("checks failed: %v (failed %d of %d)", o.problems, o.failed, o.attempted)
			}
			if _, err := collect(endToEnd, o.e2e); err != nil {
				t.Error(err)
			}
			if _, err := collect(perLayer, o.layer); err != nil {
				t.Error(err)
			}
			for _, d := range endToEnd {
				if o.e2e[d.name] <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", d.name, o.e2e[d.name])
				}
			}
			var sum float64
			for _, l := range cpuLayers {
				sum += o.layer[l+".cpu_share"]
			}
			if sum != 0 && math.Abs(sum-1) > 1e-9 {
				t.Errorf("cpu shares sum to %v", sum)
			}
			grid := name == "grid-paper"
			for _, m := range []string{"snap.forks", "store.entries", "harness.fig8_s"} {
				if got := o.layer[m] > 0; got != grid {
					t.Errorf("%s = %v on %s", m, o.layer[m], name)
				}
			}
			for _, m := range []string{"vmem.access_ns", "cache.access_ns", "sim.run_s"} {
				if got := o.layer[m] > 0; got == grid {
					t.Errorf("%s = %v on %s", m, o.layer[m], name)
				}
			}
			for _, f := range []string{"cpu.pprof", "spans.json"} {
				if _, err := os.Stat(filepath.Join(opt.traceDir, f)); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestFailedCellFailsTheCheck forces every cell over a one-cycle budget:
// the run still measures, but reports the failures and an unmet check.
func TestFailedCellFailsTheCheck(t *testing.T) {
	for _, name := range []string{"grid-paper", "sim-dispatch"} {
		t.Run(name, func(t *testing.T) {
			opt := smallOptions(t, name)
			opt.trace = false
			opt.maxCycles = 1
			o, err := run(context.Background(), opt)
			if err != nil {
				t.Fatal(err)
			}
			if o.failed == 0 || o.failed > o.attempted {
				t.Errorf("failed %d of %d cells, want 0 < failed <= attempted", o.failed, o.attempted)
			}
			if len(o.problems) == 0 {
				t.Error("no check failed")
			}
		})
	}
}

// TestCPUSharesOfOwnProfile profiles a loop over vmem.Manager.Access and
// checks the decoder charges it to vmem ahead of every other simulator
// layer. (Under the race detector most samples land in its instrumentation,
// which is "other", so the test does not ask vmem for a majority.)
func TestCPUSharesOfOwnProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pages := make([]uint64, 1<<12)
	for i := range pages {
		pages[i] = uint64(rng.Intn(512))
	}
	vm := vmem.New(8, 64, vmem.DefaultCosts(), true)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for deadline := time.Now().Add(400 * time.Millisecond); time.Now().Before(deadline); {
		for i, p := range pages {
			vm.Access(i%8, i%8, p, i%4 == 0)
		}
	}
	pprof.StopCPUProfile()

	leaves, err := decodeLeaves(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) == 0 {
		t.Skip("profile holds no samples")
	}
	shares := cpuShares(leaves)
	var sum float64
	for _, l := range cpuLayers {
		sum += shares[l]
		if l != "vmem" && l != "runtime" && l != "other" && shares[l] > shares["vmem"] {
			t.Errorf("%s share %.3f exceeds vmem's %.3f", l, shares[l], shares["vmem"])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v: %v", sum, shares)
	}
	if shares["vmem"] == 0 {
		t.Errorf("no samples charged to vmem: %v", shares)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"hintm/internal/vmem.(*Manager).Access":                      "vmem",
		"hintm/internal/flat.(*Tab[go.shape.uint8]).Find":            "flat",
		"hintm/internal/flat.(*Tab[hintm/internal/htm.rwBits]).Find": "flat",
		"hintm/internal/sim.New.func1":                               "sim",
		"hintm/internal/obs.(*Collector).TxEnd":                      "other",
		"runtime.mallocgc":                                           "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                    "runtime",
		"sync/atomic.(*Int64).Add":                                   "other",
		"main.spin":                                                  "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestSelfTimes checks the self-time arithmetic on a hand-built tree:
// overlapping children count once and a child running past its parent's end
// is clipped.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{kind: "pass", parent: -1, start: 0, end: 100},
		{kind: "cell", parent: 0, start: 10, end: 30},
		{kind: "cell", parent: 0, start: 20, end: 50},
		{kind: "cell", parent: 0, start: 90, end: 120},
		{kind: "run", parent: 1, start: 12, end: 28},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"pass": 100 - 40 - 10, // [10,50) and [90,100) are covered
		"cell": (20 - 16) + 30 + 30,
		"run":  16,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("self time of %s = %v, want %v", k, got[k], w)
		}
	}
}
