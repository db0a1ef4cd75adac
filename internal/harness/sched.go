package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"hintm/internal/classify"
	"hintm/internal/ir"
	"hintm/internal/profile"
	"hintm/internal/sim"
	"hintm/internal/workloads"
)

// The scheduler executes simulation Requests on a bounded worker pool with
// single-flight deduplication: every distinct Request runs at most once per
// Runner, concurrent duplicates wait for the first flight, and completed
// results are cached for the Runner's lifetime. Each sim.Machine is fully
// self-contained and seeded, so results are deterministic regardless of the
// worker count or completion order — the property the determinism tests
// assert and every cross-configuration comparison in the figures relies on.
//
// A request the store does not hold may still not simulate: when an
// earlier-registered member of its family (Request.family) that this runner
// simulated proves the two runs identical (proves), the request is derived
// — answered with that run's result, stored under its own key, and counted
// in RunStats.Derived instead of SimRuns.

// moduleKey identifies one built + classified module. Modules are shared
// across runs that differ only in HTM/hint configuration; after classify
// they are read-only, so concurrent machines can safely execute the same
// module.
type moduleKey struct {
	workload string
	threads  int
	scale    workloads.Scale
}

// flight is a single-flight cell: the creating goroutine computes val/err
// and closes done; everyone else waits on done (or their context).
type flight[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// member is one registered request of a family, in registration order.
type member struct {
	req Request
	f   *flight[cell]
}

// acquire takes one worker-pool slot, honouring cancellation while queued.
func (r *Runner) acquire(ctx context.Context) (release func(), err error) {
	select {
	case r.sem <- struct{}{}:
		return func() { <-r.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// cell is one request's memoized output: the run's result, for a profiled
// request (see Request.profiled) the sharing profiler's report, and, for a
// run this runner simulated or derived, the facts that prove which family
// members it answers (nil for a store recall, which never answers another).
type cell struct {
	res   *sim.Result
	prof  *profile.Report
	facts *sim.Facts
}

// register returns the flight of the resolved request req and whether the
// caller created it, and so must fly it. A created flight joins req's
// family last. The caller holds r.mu.
func (r *Runner) register(req Request) (*flight[cell], bool) {
	if f, ok := r.runs[req]; ok {
		return f, false
	}
	f := &flight[cell]{done: make(chan struct{})}
	r.runs[req] = f
	fam := req.family()
	r.fams[fam] = append(r.fams[fam], member{req, f})
	return f, true
}

// await flies f when the caller owns it, or waits for it otherwise, and
// returns its result.
func (r *Runner) await(ctx context.Context, req Request, f *flight[cell], own bool) (*sim.Result, error) {
	if own {
		r.fly(ctx, req, f)
		return f.val.res, f.err
	}
	select {
	case <-f.done:
		return f.val.res, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Run executes (or joins, or recalls, or derives) the simulation for req
// and returns its cached result. Identical Requests — from any goroutine,
// any figure — share one underlying run.
func (r *Runner) Run(ctx context.Context, req Request) (*sim.Result, error) {
	req = r.resolve(req)
	r.mu.Lock()
	f, own := r.register(req)
	r.mu.Unlock()
	return r.await(ctx, req, f, own)
}

// fly produces the owned flight f of req and closes it.
func (r *Runner) fly(ctx context.Context, req Request, f *flight[cell]) {
	// Store hook: a warm entry answers without simulating (and without a
	// worker slot); a cold run is persisted the moment it completes, so the
	// next process — or the next figure regeneration — recalls it. A
	// derived cell is persisted like a simulated one.
	if c, ok := r.storeGet(req); ok {
		r.storeHits.Add(1)
		f.val = c
	} else if c, ok, err := r.derive(ctx, req, f); err != nil {
		f.err = err
	} else if ok {
		r.derived.Add(1)
		f.val = c
		r.storePut(req, c)
	} else {
		f.val, f.err = r.execute(ctx, req)
		if f.err == nil {
			r.storePut(req, f.val)
		}
	}
	if f.err != nil {
		// Every failure names its request; RequestError unwraps, so callers
		// still match the cause with errors.Is/As.
		f.err = &RequestError{Req: req, Err: f.err}
		if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
			// A cancellation is this caller's, not the configuration's: evict
			// the flight so a later call with a live context can retry.
			r.mu.Lock()
			delete(r.runs, req)
			r.mu.Unlock()
		}
	}
	close(f.done)
}

// derive answers req from the first earlier-registered member of its
// family whose run proves it (see proves), waiting — without a worker slot
// — on members still in flight. Requests only wait on earlier ones, so
// waits cannot cycle. A member that failed, was recalled from the store or
// ran under another context's cancellation answers nothing. A profiled
// request is never derived (its run carries the sharing profiler). A
// derived cell carries its source's facts.
func (r *Runner) derive(ctx context.Context, req Request, self *flight[cell]) (cell, bool, error) {
	if req.profiled() {
		return cell{}, false, nil
	}
	r.mu.Lock()
	fam := r.fams[req.family()]
	r.mu.Unlock()
	for _, m := range fam {
		if m.f == self {
			break
		}
		select {
		case <-m.f.done:
		case <-ctx.Done():
			return cell{}, false, ctx.Err()
		}
		if src := m.f.val; m.f.err == nil && src.facts != nil && proves(m.req, req, src.res, *src.facts) {
			return cell{res: src.res, facts: src.facts}, true, nil
		}
	}
	return cell{}, false, nil
}

// RunAll submits the whole grid at once and waits for every request. The
// requests register in slice order before any runs, so a request is only
// ever derived from one listed before it (figure builders list sources
// first). The returned slice is index-aligned with reqs (duplicates resolve
// to the same *sim.Result). Failures degrade, not abort: every other
// request still runs to completion, failed slots stay nil, and the returned
// error joins one RequestError per distinct failure — so callers both get
// the partial results and learn exactly which requests died.
func (r *Runner) RunAll(ctx context.Context, reqs []Request) ([]*sim.Result, error) {
	out := make([]*sim.Result, len(reqs))
	errs := make([]error, len(reqs))
	resolved := make([]Request, len(reqs))
	flights := make([]*flight[cell], len(reqs))
	own := make([]bool, len(reqs))
	r.mu.Lock()
	for i, req := range reqs {
		resolved[i] = r.resolve(req)
		flights[i], own[i] = r.register(resolved[i])
	}
	r.mu.Unlock()
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = r.await(ctx, resolved[i], flights[i], own[i])
		}(i)
	}
	wg.Wait()
	return out, joinErrors(errs)
}

// gather runs the grid and indexes the successful results by normalized,
// unresolved Request — the shape figure builders consume: they look cells
// up by the same seedless requests they submitted. On failure the map
// still carries every request that succeeded (failed requests are simply
// absent) alongside the joined error; builders mark the missing cells
// failed. Only a cancelled context returns a nil map: nothing can be
// salvaged.
func (r *Runner) gather(ctx context.Context, reqs []Request) (map[Request]*sim.Result, error) {
	res, err := r.RunAll(ctx, reqs)
	if err != nil && ctx.Err() != nil {
		return nil, err
	}
	out := make(map[Request]*sim.Result, len(reqs))
	for i, req := range reqs {
		if res[i] != nil {
			out[req.normalize()] = res[i]
		}
	}
	return out, err
}

// report returns the sharing report memoized with req's completed run, or
// nil when req has not completed, failed, or is not profiled.
func (r *Runner) report(req Request) *profile.Report {
	r.mu.Lock()
	f := r.runs[r.resolve(req)]
	r.mu.Unlock()
	if f == nil {
		return nil
	}
	select {
	case <-f.done:
		return f.val.prof
	default:
		return nil
	}
}

// execute performs one simulation under a worker-pool slot. A panicking
// simulation (an interpreter bug, or the fault layer's injected crash) is
// recovered into a PanicError: the worker survives, the pool slot is
// released, and the grid's other requests keep running. A profiled
// request's run carries the sharing profiler, a passive observer of worker
// accesses: the result is unchanged.
func (r *Runner) execute(ctx context.Context, req Request) (c cell, err error) {
	defer func() {
		if v := recover(); v != nil {
			c, err = cell{}, &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	spec, err := workloads.ByName(req.Workload)
	if err != nil {
		return cell{}, err
	}
	release, err := r.acquire(ctx)
	if err != nil {
		return cell{}, err
	}
	defer release()
	mod, err := r.module(ctx, spec, spec.DefaultThreads*req.SMT, req.Scale)
	if err != nil {
		return cell{}, err
	}
	cfg := r.ConfigFor(spec, req)
	m, err := sim.New(cfg, mod)
	if err != nil {
		return cell{}, err
	}
	defer m.Release()
	var prof *profile.Sharing
	if req.profiled() {
		prof = profile.NewSharing(cfg.Contexts() - 1)
		m.Observe(prof)
	}
	r.execs.Add(1)
	c.res, err = m.Run(ctx)
	if c.res != nil {
		r.simCycles.Add(uint64(c.res.Cycles))
	}
	if err == nil {
		facts := m.Facts()
		c.facts = &facts
	}
	if prof != nil && err == nil {
		rep := prof.Report()
		c.prof = &rep
	}
	return c, err
}

// module builds and classifies a workload module, single-flighted: the
// first requester builds, concurrent requesters wait. The flight's creator
// never blocks on pool slots, so module waits cannot deadlock the pool.
func (r *Runner) module(ctx context.Context, spec *workloads.Spec, threads int, scale workloads.Scale) (*ir.Module, error) {
	key := moduleKey{workload: spec.Name, threads: threads, scale: scale}
	r.mu.Lock()
	if f, ok := r.mods[key]; ok {
		r.mu.Unlock()
		select {
		case <-f.done:
			return f.val, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &flight[*ir.Module]{done: make(chan struct{})}
	r.mods[key] = f
	r.mu.Unlock()

	m := spec.Build(threads, scale)
	if _, err := classify.Run(m); err != nil {
		f.err = fmt.Errorf("%s: %w", spec.Name, err)
	} else {
		f.val = m
	}
	close(f.done)
	return f.val, f.err
}

// ConfigFor assembles the machine configuration req runs on; spec is
// req's workload. The machine is sized by sim.Config.SizeFor for the
// workload's thread count, the rule hintm-sim applies too, so one
// hintm-sim command reproduces (and can trace) any figure cell.
func (r *Runner) ConfigFor(spec *workloads.Spec, req Request) sim.Config {
	req = r.resolve(req)
	cfg := sim.DefaultConfig()
	cfg.HTM = req.HTM
	cfg.Hints = req.Hints
	cfg.SMT = req.SMT
	if req.SigBits != 0 {
		cfg.SigBits = req.SigBits
	}
	if req.P8Entries != 0 {
		cfg.P8Entries = req.P8Entries
	}
	cfg.CapacityRetries = req.CapacityRetries
	if pct := int64(req.PageCostPct); pct != 0 {
		cfg.VM.MinorFault = cfg.VM.MinorFault * pct / 100
		cfg.VM.ShootdownInitiator = cfg.VM.ShootdownInitiator * pct / 100
		cfg.VM.ShootdownSlave = cfg.VM.ShootdownSlave * pct / 100
	}
	cfg.SizeFor(spec.DefaultThreads * req.SMT)
	cfg.Seed = req.Seed
	cfg.Faults = req.Faults
	cfg.WatchdogCycles = r.opts.WatchdogCycles
	cfg.MaxCycles = r.opts.MaxCycles
	return cfg
}
