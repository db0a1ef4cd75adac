package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"hintm/internal/htm"
	"hintm/internal/sim"
	"hintm/internal/workloads"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	// trace adds a traced run after the untraced passes; traceDir receives
	// its cpu.pprof and spans.json.
	trace    bool
	traceDir string
	// scale is workloads.Large for every real run; tests shrink it.
	scale workloads.Scale
	// maxCycles caps every cell's simulated clock (0 = none); tests use it to
	// force cells to fail.
	maxCycles int64
}

// outcome is what one invocation measured and checked.
type outcome struct {
	attempted, failed int
	// problems lists every output check that failed.
	problems []string
	e2e      map[string]float64
	layer    map[string]float64
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloadNames = []string{"grid-paper", "sim-translate", "sim-dispatch"}

// run measures one workload: repeated set-up, untraced passes for the
// end-to-end metrics and, with opt.trace, a traced run for the per-layer
// ones.
func run(ctx context.Context, opt options) (*outcome, error) {
	o := &outcome{e2e: make(map[string]float64), layer: make(map[string]float64)}
	var err error
	switch opt.workload {
	case "grid-paper":
		err = runGrid(ctx, opt, o)
	case "sim-translate", "sim-dispatch":
		err = runSim(ctx, opt, o)
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s)", opt.workload, strings.Join(workloadNames, "|"))
	}
	if err != nil {
		return nil, err
	}
	o.check(o.failed == 0, "%d of %d cells failed", o.failed, o.attempted)
	return o, nil
}

// setupSampler times a workload's set-up again and again, spread over the
// run, and reports the median of every timing. Set-up is a millisecond or
// two of allocation-heavy code, and the shared host switches between phases
// a second or two long in which it runs up to 1.5x slower; set-ups timed
// back to back all fall into one phase, while set-ups spread over the
// passes see the same mix of phases the passes saw.
type setupSampler struct {
	setup func() (undo func() error, err error)
	took  []float64
}

// sample times n calls of s.setup; the undo a call returns runs untimed.
// Each call starts from a collected heap, so none pays for an earlier one's
// garbage. A nil *setupSampler samples nothing, which is how traced runs
// call it.
func (s *setupSampler) sample(n int) error {
	if s == nil {
		return nil
	}
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		undo, err := s.setup()
		s.took = append(s.took, time.Since(start).Seconds())
		if undo != nil {
			if uerr := undo(); err == nil {
				err = uerr
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// simPasses is how often a sim-* run simulates every cell. The host's speed
// drifts in bursts of a few seconds, each slowing a streak of consecutive
// cells by up to half, so each cell is taken at its fastest pass. A cell's
// first run and its later ones do the same work and show no systematic
// difference, so wall_s and warm_wall_s are both that best-of-passes sum.
// The count is fixed: a faster version of the simulator gets no more samples
// than a slower one.
const simPasses = 2

func runSim(ctx context.Context, opt options, o *outcome) error {
	cells, err := simCells(simApps[opt.workload], opt.seed, opt.maxCycles)
	if err != nil {
		return err
	}
	mods, err := buildModules(cells, opt.scale, nil)
	if err != nil {
		return err
	}
	setups := &setupSampler{setup: func() (func() error, error) {
		_, err := buildModules(cells, opt.scale, nil)
		return nil, err
	}}

	var passes []*simPass
	for i := 1; i <= simPasses; i++ {
		p, err := runSimPass(ctx, cells, mods, nil, setups, fmt.Sprintf("pass %d", i))
		if err != nil {
			return err
		}
		if i > 1 {
			o.check(p.digest == passes[0].digest, "pass %d: results differ from the first pass's", i)
		}
		passes = append(passes, p)
		o.attempted += len(p.runs)
		o.failed += p.failed
		logf("pass %d: %.3f s", i, p.wall.Seconds())
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	var wall float64
	var steps int64
	for i := range cells {
		best := passes[0].runs[i].total
		for _, p := range passes[1:] {
			best = min(best, p.runs[i].total)
		}
		wall += best.Seconds()
		if r := passes[0].runs[i].res; r != nil {
			steps += r.Steps
		}
	}
	o.e2e["wall_s"] = wall
	o.e2e["warm_wall_s"] = wall
	o.e2e["sim_minstr_per_s"] = ratio(float64(steps), wall) / 1e6
	o.e2e["setup_s"] = median(setups.took)
	o.e2e["peak_rss_mb"] = rss
	if !opt.trace {
		return nil
	}
	return traceSim(ctx, opt, o, cells, passes[0])
}

// traceSim re-runs the workload once under the CPU profiler with spans,
// then records and replays every application's P8/baseline cell.
func traceSim(ctx context.Context, opt options, o *outcome, cells []cell, untraced *simPass) error {
	tr := newTracer()
	var mods *modules
	var p *simPass
	var before, after runtime.MemStats
	shares, err := profiled(opt.traceDir, func() error {
		runtime.ReadMemStats(&before)
		defer runtime.ReadMemStats(&after)
		root := tr.begin("workload", opt.workload)
		defer tr.end(root)
		sp := tr.begin("setup", "modules")
		var err error
		mods, err = buildModules(cells, opt.scale, tr)
		tr.end(sp)
		if err != nil {
			return err
		}
		p, err = runSimPass(ctx, cells, mods, tr, nil, "traced")
		return err
	})
	if err != nil {
		return err
	}
	o.check(p.digest == untraced.digest, "traced results differ from untraced (digest %.12s vs %.12s)", p.digest, untraced.digest)

	L := o.layer
	var newDur, runDur time.Duration
	var t tally
	for _, r := range p.runs {
		newDur += r.newDur
		runDur += r.runDur
		if r.res != nil {
			t.add(r.res)
		}
	}
	L["workloads.build_ms"] = ms(mods.build)
	L["classify.run_ms"] = ms(mods.classified)
	L["sim.new_ms"] = ms(newDur)
	L["sim.run_s"] = runDur.Seconds()
	L["sim.ns_per_step"] = ratio(float64(runDur.Nanoseconds()), float64(t.steps))
	t.set(L)
	setRuntime(L, &before, &after)
	for _, name := range []string{
		"harness.fig1_s", "harness.fig4_s", "harness.fig5_s", "harness.fig6_s", "harness.fig7_s", "harness.fig8_s",
		"harness.cold_runs", "harness.exec_mcycles",
		"snap.forks", "snap.prefix_runs", "snap.fork_ms", "snap.shared_mcycles",
		"store.entries", "store.mb", "store.get_us", "store.put_us",
	} {
		L[name] = 0 // the sim-* workloads bypass the harness, snap and store
	}
	L["trace_overhead_frac"] = ratio(p.wall.Seconds(), untraced.wall.Seconds()) - 1
	setShares(L, shares)

	if err := replayBaselines(ctx, o, cells, mods, untraced); err != nil {
		return err
	}
	return writeSpans(opt.traceDir, tr)
}

// replayBaselines records each application's P8/baseline cell, checks the
// recording left its result unchanged, and replays the stream through the
// translation, cache and HTM layers.
func replayBaselines(ctx context.Context, o *outcome, cells []cell, mods *modules, untraced *simPass) error {
	var total [3]layerReplay   // every stream's calls and time
	var checked [3]layerReplay // the counts of streams that were not truncated
	for i, c := range cells {
		if i%len(simConfigs) != 0 || untraced.runs[i].res == nil {
			continue
		}
		rec := &recorder{}
		r := runCell(ctx, c, mods.byKey[moduleKey{c.spec.Name, c.threads}], nil, rec)
		if r.err != nil {
			return fmt.Errorf("recording %s: %w", c.name, r.err)
		}
		got, err := digestResults([]*sim.Result{r.res})
		if err != nil {
			return err
		}
		want, err := digestResults([]*sim.Result{untraced.runs[i].res})
		if err != nil {
			return err
		}
		o.check(got == want, "recording %s changed its result", c.name)

		line := fmt.Sprintf("replay %-26s %8d events", c.name, len(rec.events))
		for k, l := range replay(rec, c.cfg, r.res) {
			total[k].calls += l.calls
			total[k].took += l.took
			f := fidelity(l.replayed, l.simulated)
			line += fmt.Sprintf("  %s %5.1f ns, fidelity %.4f", replayLayers[k], nsPer(l.took, l.calls), f)
			if !rec.truncated {
				o.check(f >= 0.9 && f <= 1.1, "%s replay of %s: fidelity %.4f outside [0.9, 1.1]", replayLayers[k], c.name, f)
				checked[k].replayed += l.replayed
				checked[k].simulated += l.simulated
			}
		}
		if rec.truncated {
			line += "  (stream truncated: fidelity not checked)"
		}
		logf("%s", line)
	}
	for k, name := range replayLayers {
		o.layer[name+".access_ns"] = nsPer(total[k].took, total[k].calls)
		o.layer[name+".replay_fidelity"] = fidelity(checked[k].replayed, checked[k].simulated)
	}
	return nil
}

// profiled runs fn under the CPU profiler, writing dir/cpu.pprof, and
// returns each layer's share of the profiled CPU time.
func profiled(dir string, fn func() error) (map[string]float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	ferr := fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if ferr != nil {
		return nil, ferr
	}
	rf, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	defer rf.Close()
	leaves, err := decodeLeaves(rf)
	if err != nil {
		return nil, err
	}
	return cpuShares(leaves), nil
}

// writeSpans writes the traced run's spans to dir/spans.json and prints the
// self time of each span kind.
func writeSpans(dir string, tr *tracer) error {
	f, err := os.Create(filepath.Join(dir, "spans.json"))
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := writeChrome(f, tr.spans); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	self := selfTimes(tr.spans)
	kinds := make([]string, 0, len(self))
	for k := range self {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return self[kinds[i]] > self[kinds[j]] })
	logf("span self time (%s):", filepath.Join(dir, "spans.json"))
	for _, k := range kinds {
		logf("  %-10s %10.3f s", k, self[k].Seconds())
	}
	return nil
}

// tally sums the simulator's own counters over cells.
type tally struct {
	steps, cycles                  int64
	tlbMisses, transitions         uint64
	l1Hits, l1Misses, busOps       uint64
	commits, aborts, capacity, fbc uint64
}

func (t *tally) add(r *sim.Result) {
	t.steps += r.Steps
	t.cycles += r.Cycles
	t.tlbMisses += r.VM.TLBMisses
	t.transitions += r.VM.Transitions
	t.l1Hits += r.Cache.L1Hits
	t.l1Misses += r.Cache.L1Misses
	t.busOps += r.Cache.BusOps
	t.commits += r.Commits
	t.aborts += r.TotalAborts()
	t.capacity += r.Aborts[htm.AbortCapacity]
	t.fbc += r.FallbackCommits
}

func (t *tally) set(L map[string]float64) {
	L["sim.steps"] = float64(t.steps)
	L["sim.cycles"] = float64(t.cycles)
	L["vmem.tlb_miss_per_kstep"] = ratio(float64(t.tlbMisses), float64(t.steps)) * 1000
	L["vmem.transitions"] = float64(t.transitions)
	L["cache.l1_miss_rate"] = ratio(float64(t.l1Misses), float64(t.l1Hits+t.l1Misses))
	L["cache.bus_ops"] = float64(t.busOps)
	L["htm.commit_ratio"] = ratio(float64(t.commits), float64(t.commits+t.aborts))
	L["htm.aborts_capacity"] = float64(t.capacity)
	L["htm.fallback_commits"] = float64(t.fbc)
}

// setRuntime records the Go runtime's work over the traced run.
func setRuntime(L map[string]float64, before, after *runtime.MemStats) {
	L["runtime.gc_count"] = float64(after.NumGC - before.NumGC)
	L["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
}

func setShares(L map[string]float64, shares map[string]float64) {
	for _, l := range cpuLayers {
		L[l+".cpu_share"] = shares[l]
	}
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func nsPer(d time.Duration, n int) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
