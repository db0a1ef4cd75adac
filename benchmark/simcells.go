package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"hintm/internal/cache"
	"hintm/internal/classify"
	"hintm/internal/ir"
	"hintm/internal/sim"
	"hintm/internal/workloads"
)

// simApps are the sim-* workloads' applications. The translate set has a
// footprint that overflows the TLB and L1 and the P8 buffer; the dispatch
// set computes over a small working set, so interpretation and scheduling
// dominate its host time.
var simApps = map[string][]string{
	"sim-translate": {"vacation", "yada", "tpcc-no", "bayes"},
	"sim-dispatch":  {"kmeans", "labyrinth", "intruder", "genome"},
}

// simConfigs are the machine configurations every sim-* application runs.
// The first, P8 without hints, is the one whose stream the traced run
// replays layer by layer.
var simConfigs = []struct {
	htm   sim.HTMKind
	hints sim.HintMode
	smt   int
}{
	{sim.HTMP8, sim.HintNone, 1},
	{sim.HTMP8, sim.HintFull, 1},
	{sim.HTMP8S, sim.HintFull, 1},
	{sim.HTML1TM, sim.HintFull, 2},
}

// cell is one simulation of a sim-* workload.
type cell struct {
	name    string
	spec    *workloads.Spec
	threads int
	cfg     sim.Config
}

// simCells lists a workload's cells, application-major. The machine
// configuration mirrors the harness's: with SMT the machine shrinks to one
// core per application thread so two contexts share every core.
func simCells(apps []string, seed uint64, maxCycles int64) ([]cell, error) {
	var cells []cell
	for _, app := range apps {
		spec, err := workloads.ByName(app)
		if err != nil {
			return nil, err
		}
		for _, c := range simConfigs {
			cfg := sim.DefaultConfig()
			cfg.HTM, cfg.Hints, cfg.SMT = c.htm, c.hints, c.smt
			if c.smt > 1 {
				cfg.Cores = spec.DefaultThreads
				cfg.Cache = cache.DefaultConfig(cfg.Cores)
			}
			cfg.Seed = seed
			cfg.MaxCycles = maxCycles
			cells = append(cells, cell{
				name:    fmt.Sprintf("%s/%v/%v/smt%d", app, c.htm, c.hints, c.smt),
				spec:    spec,
				threads: spec.DefaultThreads * c.smt,
				cfg:     cfg,
			})
		}
	}
	return cells, nil
}

type moduleKey struct {
	app     string
	threads int
}

// modules holds the built and classified module of every (app, threads)
// pair a workload runs, with the time the two steps took.
type modules struct {
	byKey             map[moduleKey]*ir.Module
	build, classified time.Duration
}

// buildModules builds and classifies each distinct module the cells need,
// in cell order.
func buildModules(cells []cell, scale workloads.Scale, tr *tracer) (*modules, error) {
	ms := &modules{byKey: make(map[moduleKey]*ir.Module)}
	for _, c := range cells {
		key := moduleKey{c.spec.Name, c.threads}
		if ms.byKey[key] != nil {
			continue
		}
		name := fmt.Sprintf("%s/t%d", c.spec.Name, c.threads)
		sp := tr.begin("build", name)
		start := time.Now()
		m := c.spec.Build(c.threads, scale)
		ms.build += time.Since(start)
		tr.end(sp)

		sp = tr.begin("classify", name)
		start = time.Now()
		_, err := classify.Run(m)
		ms.classified += time.Since(start)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("classify %s: %w", name, err)
		}
		ms.byKey[key] = m
	}
	return ms, nil
}

// cellRun is one executed cell.
type cellRun struct {
	res            *sim.Result // nil when the cell failed
	err            error
	newDur, runDur time.Duration
	// total spans New through Release.
	total time.Duration
}

// runCell simulates one cell: sim.New, Run, Release, each under a span. A
// non-nil prof observes every access and transaction event.
func runCell(ctx context.Context, c cell, mod *ir.Module, tr *tracer, prof sim.Profiler) (out cellRun) {
	root := tr.begin("cell", c.name)
	defer tr.end(root)
	begin := time.Now()
	defer func() { out.total = time.Since(begin) }()

	sp := tr.begin("new", c.name)
	start := time.Now()
	m, err := sim.New(c.cfg, mod)
	out.newDur = time.Since(start)
	tr.end(sp)
	if err != nil {
		out.err = err
		return out
	}
	if prof != nil {
		m.SetProfiler(prof)
	}

	sp = tr.begin("run", c.name)
	start = time.Now()
	out.res, out.err = m.Run(ctx)
	out.runDur = time.Since(start)
	tr.end(sp)

	sp = tr.begin("release", c.name)
	m.Release()
	tr.end(sp)
	if out.err != nil {
		out.res = nil
	}
	return out
}

// simPass is one serial run over every cell of a workload.
type simPass struct {
	runs []cellRun
	// wall is the sum of the cells' times, without any set-ups timed between
	// them.
	wall   time.Duration
	failed int
	digest string
}

// setupsPerCell is how many set-ups a sim-* pass times before each cell.
const setupsPerCell = 2

// runSimPass simulates every cell in order. With a non-nil setups it times
// set-ups before each cell.
func runSimPass(ctx context.Context, cells []cell, mods *modules, tr *tracer, setups *setupSampler, name string) (*simPass, error) {
	sp := tr.begin("pass", name)
	defer tr.end(sp)
	p := &simPass{}
	for _, c := range cells {
		if err := setups.sample(setupsPerCell); err != nil {
			return nil, err
		}
		r := runCell(ctx, c, mods.byKey[moduleKey{c.spec.Name, c.threads}], tr, nil)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if r.err != nil {
			p.failed++
			logf("cell %s failed: %v", c.name, r.err)
		}
		p.runs = append(p.runs, r)
		p.wall += r.total
	}
	results := make([]*sim.Result, len(p.runs))
	for i, r := range p.runs {
		results[i] = r.res
	}
	var err error
	p.digest, err = digestResults(results)
	return p, err
}

// digestResults hashes every cell's canonical sim.Result JSON in order; a
// failed cell hashes as a fixed marker.
func digestResults(results []*sim.Result) (string, error) {
	h := sha256.New()
	for _, r := range results {
		if r == nil {
			h.Write([]byte("failed\n"))
			continue
		}
		data, err := json.Marshal(r)
		if err != nil {
			return "", fmt.Errorf("digest: %w", err)
		}
		h.Write(data)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
