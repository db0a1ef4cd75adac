package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"syscall"
)

// metricDef names one reported metric and its unit. The names are the
// contract with BENCHMARK.json (benchmark_test.go checks that the two
// agree); later changes cite metrics by these names.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"warm_wall_s", "s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// cpuLayers are the layers a CPU profile sample can be charged to: the
// simulator's internal packages by name, the Go runtime, and "other" for
// everything else.
var cpuLayers = []string{
	"sim", "interp", "vmem", "cache", "htm", "flat", "mem",
	"harness", "snap", "store", "workloads", "classify", "ir", "profile",
	"runtime", "other",
}

// perLayer are the metrics of the traced run. A metric that does not apply
// to a workload (a figure time on a sim-* workload, a layer replay on
// grid-paper) reads 0.
var perLayer = append([]metricDef{
	{"workloads.build_ms", "ms"},
	{"classify.run_ms", "ms"},
	{"sim.new_ms", "ms"},
	{"sim.run_s", "s"},
	{"sim.ns_per_step", "ns"},
	{"sim.steps", "count"},
	{"sim.cycles", "count"},
	{"vmem.access_ns", "ns"},
	{"vmem.tlb_miss_per_kstep", "1/kstep"},
	{"vmem.transitions", "count"},
	{"vmem.replay_fidelity", "ratio"},
	{"cache.access_ns", "ns"},
	{"cache.l1_miss_rate", "frac"},
	{"cache.bus_ops", "count"},
	{"cache.replay_fidelity", "ratio"},
	{"htm.access_ns", "ns"},
	{"htm.commit_ratio", "frac"},
	{"htm.aborts_capacity", "count"},
	{"htm.fallback_commits", "count"},
	{"htm.replay_fidelity", "ratio"},
	{"runtime.gc_count", "count"},
	{"runtime.alloc_mb", "MB"},
	{"harness.fig1_s", "s"},
	{"harness.fig4_s", "s"},
	{"harness.fig5_s", "s"},
	{"harness.fig6_s", "s"},
	{"harness.fig7_s", "s"},
	{"harness.fig8_s", "s"},
	{"harness.cold_runs", "count"},
	{"harness.exec_mcycles", "Mcycles"},
	{"snap.forks", "count"},
	{"snap.prefix_runs", "count"},
	{"snap.fork_ms", "ms"},
	{"snap.shared_mcycles", "Mcycles"},
	{"store.entries", "count"},
	{"store.mb", "MB"},
	{"store.get_us", "us"},
	{"store.put_us", "us"},
	{"trace_overhead_frac", "frac"},
}, cpuShareDefs()...)

func cpuShareDefs() []metricDef {
	defs := make([]metricDef, len(cpuLayers))
	for i, l := range cpuLayers {
		defs[i] = metricDef{l + ".cpu_share", "frac"}
	}
	return defs
}

// jsonMetric is one metric in the result line and the -json file.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect picks defs out of vals. Every listed metric must have been set and
// be finite: a missing one is a bug in the benchmark, not a zero.
func collect(defs []metricDef, vals map[string]float64) (map[string]jsonMetric, error) {
	out := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.name, v)
		}
		out[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// printTable writes the metrics one per line, in definition order.
func printTable(defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Printf("%-26s %16s %s\n", d.name, strconv.FormatFloat(vals[d.name], 'g', 6, 64), d.unit)
	}
}

// median returns the middle sample (the mean of the two middle ones for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's peak resident set in MB: getrusage's
// ru_maxrss, the same high-water mark /proc/self/status shows as VmHWM.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil // Linux reports kilobytes
}
