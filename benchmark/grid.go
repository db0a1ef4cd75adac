package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"hintm/internal/harness"
	"hintm/internal/sim"
	"hintm/internal/store"
	"hintm/internal/workloads"
)

// gridFigures are the figures grid-paper renders, in RenderAll's order.
// Calling each renderer separately times every figure's marginal cost.
var gridFigures = []struct {
	name   string
	render func(*harness.Runner, context.Context, io.Writer) error
}{
	{"fig1", (*harness.Runner).RenderFig1},
	{"fig4", (*harness.Runner).RenderFig4},
	{"fig5", (*harness.Runner).RenderFig5},
	{"fig6", (*harness.Runner).RenderFig6},
	{"fig7", (*harness.Runner).RenderFig7},
	{"fig8", (*harness.Runner).RenderFig8},
}

// gridEnv is one fresh temporary store and the runner options that use it.
type gridEnv struct {
	dir  string
	st   *store.Store
	opts harness.Options
}

// newGrid creates a temporary store and a runner on it: the set-up a user
// pays before the grid starts.
func newGrid(opt options) (*gridEnv, *harness.Runner, error) {
	dir, err := os.MkdirTemp("", "hintm-perf-store-*")
	if err != nil {
		return nil, nil, fmt.Errorf("store dir: %w", err)
	}
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	env := &gridEnv{dir: dir, st: st, opts: harness.Options{
		Scale:      opt.scale,
		LargeScale: opt.scale,
		Seed:       opt.seed,
		Workers:    min(2, runtime.NumCPU()),
		MaxCycles:  opt.maxCycles,
		Store:      st,
	}}
	return env, harness.NewRunner(env.opts), nil
}

// gridPass is one rendering of every figure by one runner.
type gridPass struct {
	text      []byte
	figures   []time.Duration
	wall      time.Duration
	stats     harness.RunStats
	attempted int
	failed    int
}

func renderGrid(ctx context.Context, r *harness.Runner, tr *tracer, name string) (*gridPass, error) {
	sp := tr.begin("pass", name)
	defer tr.end(sp)
	p := &gridPass{}
	var buf bytes.Buffer
	failures := make(map[error]bool)
	before := r.Stats()
	start := time.Now()
	for _, f := range gridFigures {
		fs := tr.begin("figure", f.name)
		t0 := time.Now()
		err := f.render(r, ctx, &buf)
		p.figures = append(p.figures, time.Since(t0))
		tr.end(fs)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			collectFailures(err, failures)
		}
	}
	p.wall = time.Since(start)
	p.stats = r.Stats().Sub(before)
	p.text = buf.Bytes()
	p.failed = len(failures)
	// Every cell the runner simulated or recalled counts as attempted; a cell
	// that failed before reaching the simulator is in neither count.
	p.attempted = max(int(p.stats.SimRuns+p.stats.StoreHits), p.failed)
	if p.failed > 0 {
		logf("grid %s pass: %d failed cells, e.g. %v", name, p.failed, firstKey(failures))
	}
	return p, nil
}

// collectFailures adds the distinct failed cells in err's tree: each
// harness.RequestError is one cell (figures sharing a failed run report the
// same instance), and any other leaf error counts as one.
func collectFailures(err error, into map[error]bool) {
	if _, ok := err.(*harness.RequestError); ok {
		into[err] = true
		return
	}
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range j.Unwrap() {
			collectFailures(e, into)
		}
		return
	}
	into[err] = true
}

func firstKey(m map[error]bool) error {
	for e := range m {
		return e
	}
	return nil
}

// gridRun is one cold render into a fresh store followed by warm
// re-renders from it, each by a fresh runner on the same store.
type gridRun struct {
	env     *gridEnv
	runner  *harness.Runner // the cold pass's, kept by traced runs only
	cold    *gridPass
	warm    []*gridPass
	digest  string
	keys    []string      // the stored cells' keys, sorted
	results []*sim.Result // the stored cells, in key order
	// cells holds the workload and thread count of every stored cell, read
	// back from its request; buildModules builds each module they name once.
	cells []cell
}

// gridWarmPasses is how many warm re-renders follow the cold render, and
// warm_wall_s is their median. The count is fixed: a faster version of the
// simulator gets no more samples than a slower one. More re-renders would
// steady the median but lengthen every run.
const gridWarmPasses = 3

// gridWarmWorkers is the warm re-renders' worker count. A warm re-render
// re-simulates only Fig. 1's ten profiled runs, which are never stored. With
// two workers, which runs share a worker depends on which goroutine takes a
// free slot first, and that alone moves the wall time by up to a third; one
// worker runs them back to back, so the wall time is their sum.
const gridWarmWorkers = 1

// runGridOnce renders the grid cold, then re-renders it warm gridWarmPasses
// times, or once when traced: the traced run times no warm pass. When setups
// is non-nil it also times the grid's set-up before every warm re-render and
// after the last. The caller removes g.env.dir.
func runGridOnce(ctx context.Context, opt options, tr *tracer, setups *setupSampler) (g *gridRun, err error) {
	sp := tr.begin("setup", "store+runner")
	env, r, err := newGrid(opt)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	g = &gridRun{env: env}
	if g.cold, err = renderGrid(ctx, r, tr, "cold"); err != nil {
		return g, err
	}
	// The cold runner holds some 140 MB of memoized state at large scale.
	// Keeping it alive would make every garbage collection in the warm
	// re-renders mark it, which a user's warm re-render, a fresh process,
	// never does; only the traced run needs it afterwards (execCycles).
	if tr != nil {
		g.runner = r
	}
	if err := g.readStore(); err != nil {
		return g, err
	}
	if setups != nil {
		setups.setup = g.setup(opt)
	}
	warmOpts := env.opts
	warmOpts.Workers = gridWarmWorkers
	passes := gridWarmPasses
	if tr != nil {
		passes = 1
	}
	for i := 1; i <= passes; i++ {
		if err := setups.sample(setupsPerWarmPass); err != nil {
			return g, err
		}
		w, err := renderGrid(ctx, harness.NewRunner(warmOpts), tr, fmt.Sprintf("warm %d", i))
		if err != nil {
			return g, err
		}
		g.warm = append(g.warm, w)
	}
	return g, setups.sample(setupsPerWarmPass)
}

// setupsPerWarmPass is how many set-ups grid-paper times before each warm
// re-render and after the last.
const setupsPerWarmPass = 11

// setup returns the grid's set-up: a fresh store and runner, then building
// and classifying each module the stored cells name, which the runner
// repeats lazily inside its cold pass. The modules make set-up CPU-bound;
// store and runner creation alone are a few filesystem calls whose cost
// swings with the host's I/O load. The store lists the modules, so set-up
// is timed after the cold render.
func (g *gridRun) setup(opt options) func() (func() error, error) {
	return func() (func() error, error) {
		env, _, err := newGrid(opt)
		if err != nil {
			return nil, err
		}
		_, err = buildModules(g.cells, opt.scale, nil)
		return func() error { return os.RemoveAll(env.dir) }, err
	}
}

// readStore hashes every stored cell's canonical sim.Result JSON in key
// order, decodes the results, and lists the modules the requests name.
func (g *gridRun) readStore() error {
	h := sha256.New()
	for _, ie := range g.env.st.List() {
		g.keys = append(g.keys, ie.Key)
	}
	sort.Strings(g.keys)
	for _, k := range g.keys {
		e, _, err := g.env.st.Get(k)
		if err != nil {
			return err
		}
		if e == nil {
			return fmt.Errorf("store entry %s unreadable", k)
		}
		var res sim.Result
		if err := json.Unmarshal(e.Result, &res); err != nil {
			return fmt.Errorf("store entry %s: %w", k, err)
		}
		g.results = append(g.results, &res)
		fmt.Fprintf(h, "%s\n%s\n", k, e.Result)

		var req struct {
			Workload string `json:"workload"`
			SMT      int    `json:"smt"`
		}
		if err := json.Unmarshal(e.Request, &req); err != nil {
			return fmt.Errorf("store entry %s request: %w", k, err)
		}
		spec, err := workloads.ByName(req.Workload)
		if err != nil {
			return err
		}
		g.cells = append(g.cells, cell{spec: spec, threads: spec.DefaultThreads * max(req.SMT, 1)})
	}
	g.digest = hex.EncodeToString(h.Sum(nil))
	return nil
}

// check records the run's cells and the checks on its figure text.
func (g *gridRun) check(o *outcome) {
	o.attempted += g.cold.attempted
	o.failed += g.cold.failed
	for i, w := range g.warm {
		o.attempted += w.attempted
		o.failed += w.failed
		o.check(bytes.Equal(w.text, g.cold.text), "warm re-render %d: figure text differs from the cold text", i+1)
	}
}

func runGrid(ctx context.Context, opt options, o *outcome) error {
	setups := &setupSampler{}
	g, err := runGridOnce(ctx, opt, nil, setups)
	if g != nil {
		defer os.RemoveAll(g.env.dir)
	}
	if err != nil {
		return err
	}
	g.check(o)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	var warm []float64
	for _, w := range g.warm {
		warm = append(warm, w.wall.Seconds())
	}
	logf("cold %.3f s, warm %v s, %d stored cells", g.cold.wall.Seconds(), warm, len(g.keys))
	var steps int64
	for _, r := range g.results {
		steps += r.Steps
	}

	o.e2e["wall_s"] = g.cold.wall.Seconds()
	o.e2e["warm_wall_s"] = median(warm)
	// Every stored cell's full instruction count, prefix included, over the
	// cold wall: the simulated work the grid delivers per host second.
	o.e2e["sim_minstr_per_s"] = ratio(float64(steps), g.cold.wall.Seconds()) / 1e6
	o.e2e["setup_s"] = median(setups.took)
	o.e2e["peak_rss_mb"] = rss
	if !opt.trace {
		return nil
	}
	digest, text := g.digest, g.cold.text
	g = nil // the traced run needs the memory the untraced runner holds
	return traceGrid(ctx, opt, o, digest, text)
}

// traceGrid re-renders the grid cold and warm under the CPU profiler with
// spans, then measures what the profile cannot separate: the simulated
// cycles the runner executed, the module builds, and store reads and writes.
func traceGrid(ctx context.Context, opt options, o *outcome, digest string, text []byte) error {
	tr := newTracer()
	var g *gridRun
	var before, after runtime.MemStats
	shares, err := profiled(opt.traceDir, func() error {
		runtime.ReadMemStats(&before)
		defer runtime.ReadMemStats(&after)
		root := tr.begin("workload", opt.workload)
		defer tr.end(root)
		var err error
		g, err = runGridOnce(ctx, opt, tr, nil)
		return err
	})
	if g != nil {
		defer os.RemoveAll(g.env.dir)
	}
	if err != nil {
		return err
	}
	var traced outcome
	g.check(&traced)
	o.problems = append(o.problems, traced.problems...)
	o.check(traced.failed == 0, "traced run: %d of %d cells failed", traced.failed, traced.attempted)
	o.check(g.digest == digest, "traced results differ from untraced (digest %.12s vs %.12s)", g.digest, digest)
	o.check(bytes.Equal(g.cold.text, text), "traced figure text differs from untraced")

	L := o.layer
	for i, f := range gridFigures {
		L["harness."+f.name+"_s"] = g.cold.figures[i].Seconds()
	}
	st := g.cold.stats
	L["harness.cold_runs"] = float64(st.ColdRuns())
	L["snap.forks"] = float64(st.ForkedRuns)
	L["snap.prefix_runs"] = float64(st.PrefixRuns)
	L["snap.fork_ms"] = st.ForkSeconds * 1e3
	L["snap.shared_mcycles"] = float64(st.SharedCycles) / 1e6
	exec, err := execCycles(ctx, g.runner, opt, tr)
	if err != nil {
		return err
	}
	L["harness.exec_mcycles"] = float64(exec) / 1e6

	var t tally
	for _, r := range g.results {
		t.add(r)
	}
	t.set(L)
	setRuntime(L, &before, &after)
	for _, name := range []string{
		"sim.new_ms", "sim.run_s", "sim.ns_per_step",
		"vmem.access_ns", "vmem.replay_fidelity",
		"cache.access_ns", "cache.replay_fidelity",
		"htm.access_ns", "htm.replay_fidelity",
	} {
		L[name] = 0 // the runner makes these calls itself, out of the benchmark's reach
	}
	L["trace_overhead_frac"] = ratio(g.cold.wall.Seconds(), o.e2e["wall_s"]) - 1
	setShares(L, shares)

	sp := tr.begin("setup", "modules")
	mods, err := buildModules(g.cells, opt.scale, tr)
	tr.end(sp)
	if err != nil {
		return err
	}
	L["workloads.build_ms"] = ms(mods.build)
	L["classify.run_ms"] = ms(mods.classified)
	if err := storeReplay(g, tr, L); err != nil {
		return err
	}
	return writeSpans(opt.traceDir, tr)
}

// execCycles returns the simulated cycles the cold runner executed. The
// runner reports its total only through BenchResults, which re-runs Fig.
// 1's profiled simulations; those equal the memoized InfCap/baseline runs
// of the same cells, whose cycles are subtracted again.
func execCycles(ctx context.Context, r *harness.Runner, opt options, tr *tracer) (uint64, error) {
	sp := tr.begin("harness", "BenchResults")
	defer tr.end(sp)
	br, err := r.BenchResults(ctx)
	if err != nil {
		return 0, err
	}
	total := br.SimCycles
	for _, spec := range workloads.All() {
		res, err := r.Run(ctx, harness.Request{Workload: spec.Name, Scale: opt.scale, HTM: sim.HTMInfCap, Hints: sim.HintNone, SMT: 1})
		if err != nil {
			return 0, err
		}
		total -= uint64(res.Cycles)
	}
	return total, nil
}

// storeReplay reads every stored entry back, then writes them all into a
// fresh store, timing each layer call.
func storeReplay(g *gridRun, tr *tracer, L map[string]float64) error {
	var entries []store.Entry
	var size int64
	for _, ie := range g.env.st.List() {
		size += ie.Size
	}
	sp := tr.begin("store", "get")
	start := time.Now()
	for _, k := range g.keys {
		e, _, err := g.env.st.Get(k)
		if err != nil || e == nil {
			tr.end(sp)
			return fmt.Errorf("store get %s: %v", k, err)
		}
		entries = append(entries, *e)
	}
	get := time.Since(start)
	tr.end(sp)

	dir, err := os.MkdirTemp("", "hintm-perf-store-*")
	if err != nil {
		return fmt.Errorf("store dir: %w", err)
	}
	defer os.RemoveAll(dir)
	dst, err := store.Open(dir)
	if err != nil {
		return err
	}
	sp = tr.begin("store", "put")
	start = time.Now()
	for _, e := range entries {
		if _, err := dst.Put(store.Entry{Request: e.Request, Result: e.Result}); err != nil {
			tr.end(sp)
			return err
		}
	}
	put := time.Since(start)
	tr.end(sp)

	n := len(entries)
	L["store.entries"] = float64(n)
	L["store.mb"] = float64(size) / 1e6
	L["store.get_us"] = nsPer(get, n) / 1e3
	L["store.put_us"] = nsPer(put, n) / 1e3
	return nil
}
