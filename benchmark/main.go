// Command hintm-perf is the repository's performance benchmark. It times the
// simulator end to end on the paper-scale figure grid and on two sets of
// direct simulator runs, one bound by translation and caches and one by
// interpretation, and with -trace 1 attributes host time to the layers.
// See README.md in this directory for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload sim-dispatch --seed 1 --seconds 20 --trace 0
//	(cd benchmark && go run . -workload grid-paper -trace 1 -json out.json)
//
// It prints every metric with its unit and, as the last line of standard
// output, one JSON object {"correct", "attempted", "failed", "metrics"}. It
// exits 1 after printing when an output check fails, and 2 without a result
// line when it cannot measure at all.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"

	"hintm/internal/workloads"
)

func main() {
	opt := options{scale: workloads.Large}
	var secs float64
	var traced int
	var jsonPath string
	flag.StringVar(&opt.workload, "workload", "", "workload to run: grid-paper, sim-translate or sim-dispatch")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed of every simulation")
	flag.Float64Var(&secs, "seconds", 0, "accepted for a common benchmark command line and otherwise ignored: every run takes the same fixed samples")
	flag.IntVar(&traced, "trace", 0, "1 adds a traced run and reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&opt.traceDir, "trace-dir", "", "where the traced run writes cpu.pprof and spans.json (default .bench_build/trace/<workload>)")
	flag.StringVar(&jsonPath, "json", "", "also write the metrics and run metadata to this file")
	flag.Parse()
	if flag.NArg() != 0 || (traced != 0 && traced != 1) || secs < 0 {
		flag.Usage()
		os.Exit(2)
	}
	opt.trace = traced == 1
	if opt.traceDir == "" {
		opt.traceDir = filepath.Join(".bench_build", "trace", opt.workload)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	o, err := run(ctx, opt)
	if err != nil {
		fatal(err)
	}
	defs, vals := endToEnd, o.e2e
	if opt.trace {
		defs, vals = perLayer, o.layer
	}
	metrics, err := collect(defs, vals)
	if err != nil {
		fatal(err)
	}
	printTable(defs, vals)
	for _, p := range o.problems {
		logf("CHECK FAILED: %s", p)
	}
	correct := len(o.problems) == 0
	if jsonPath != "" {
		if err := writeReport(jsonPath, opt, o, correct); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, o.attempted, o.failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	logf("hintm-perf: %v", err)
	os.Exit(2)
}

// writeReport writes the -json file: the run's identity and every metric
// it measured, end-to-end and, when traced, per-layer.
func writeReport(path string, opt options, o *outcome, correct bool) error {
	metrics, err := collect(endToEnd, o.e2e)
	if err != nil {
		return err
	}
	if opt.trace {
		layer, err := collect(perLayer, o.layer)
		if err != nil {
			return err
		}
		for k, v := range layer {
			metrics[k] = v
		}
	}
	data, err := json.MarshalIndent(struct {
		Workload   string                `json:"workload"`
		Seed       uint64                `json:"seed"`
		NProc      int                   `json:"nproc"`
		GOMAXPROCS int                   `json:"gomaxprocs"`
		GoVersion  string                `json:"go_version"`
		Revision   string                `json:"vcs_revision"`
		Correct    bool                  `json:"correct"`
		Attempted  int                   `json:"attempted"`
		Failed     int                   `json:"failed"`
		Metrics    map[string]jsonMetric `json:"metrics"`
	}{opt.workload, opt.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), revision(),
		correct, o.attempted, o.failed, metrics}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// revision is the VCS revision the binary was built from, "-dirty" when the
// tree had changes, or "unknown" outside a repository.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty && rev != "unknown" {
		rev += "-dirty"
	}
	return rev
}
