// Package cli is the shared command-line surface of the hintm binaries.
//
// hintm-sim, hintm-bench, hintm-served, and hintm-load configure the same
// machinery — input scales, HTM kind and hint mode, seeds, fault plans,
// the result store, worker counts, timeouts — and before this package each
// binary re-registered and re-parsed those flags by hand, drifting in
// defaults and usage text. The flag groups live here once: a binary
// registers the group(s) it needs on its FlagSet and asks the group for
// the parsed, validated configuration. Spellings are validated with the
// same parsers the wire format uses (workloads.ParseScale,
// sim.ParseHTMKind, sim.ParseHintMode), so `-htm p8s` on a command line
// and `"htm":"p8s"` in a request body accept exactly the same values.
package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"hintm/internal/fault"
	"hintm/internal/harness"
	"hintm/internal/server"
	"hintm/internal/sim"
	"hintm/internal/store"
	"hintm/internal/workloads"
)

// ---- harness options (hintm-bench, hintm-served) -----------------------

// HarnessFlags collects the scheduler-facing flags. Register with
// RegisterHarness, then call Options after flag parsing.
type HarnessFlags struct {
	scale        *string
	large        *string
	workloads    *string
	seed         *uint64
	workers      *int
	faults       *string
	watchdog     *int64
	maxCycles    *int64
	traceDir     *string
	sampleCycles *int64
}

// RegisterHarness registers the shared scheduler flags (-scale, -large,
// -workloads, -seed, -workers, -faults, -watchdog, -max-cycles,
// -trace-dir, -sample-cycles) on fs.
func RegisterHarness(fs *flag.FlagSet) *HarnessFlags {
	h := &HarnessFlags{}
	h.scale = fs.String("scale", "medium", "input scale for requests and P8 figures: small|medium|large")
	h.large = fs.String("large", "large", "input scale for Fig 7/8: small|medium|large")
	h.workloads = fs.String("workloads", "", "comma-separated workload subset")
	h.seed = fs.Uint64("seed", 1, "simulation seed (part of every store key)")
	h.workers = fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	h.faults = fs.String("faults", "", `fault-injection plan, e.g. "spurious=0.01,storm=0.001"`)
	h.watchdog = fs.Int64("watchdog", 0, "fail a run after this many cycles without forward progress (0 = off)")
	h.maxCycles = fs.Int64("max-cycles", 0, "hard cap on each run's simulated cycles (0 = none)")
	h.traceDir = fs.String("trace-dir", "", "write per-run Chrome traces and abort autopsies into this directory")
	h.sampleCycles = fs.Int64("sample-cycles", 0, "counter-sample period for traced runs (0 = 10000-cycle default)")
	return h
}

// Options validates the parsed flags into harness.Options.
func (h *HarnessFlags) Options() (harness.Options, error) {
	opts := harness.DefaultOptions()
	var err error
	if opts.Scale, err = workloads.ParseScale(*h.scale); err != nil {
		return opts, err
	}
	if opts.LargeScale, err = workloads.ParseScale(*h.large); err != nil {
		return opts, err
	}
	if *h.workloads != "" {
		opts.Filter = strings.Split(*h.workloads, ",")
	}
	opts.Seed = *h.seed
	opts.Workers = *h.workers
	if opts.Faults, err = fault.ParsePlan(*h.faults); err != nil {
		return opts, err
	}
	opts.WatchdogCycles = *h.watchdog
	opts.MaxCycles = *h.maxCycles
	opts.TraceDir = *h.traceDir
	opts.SampleCycles = *h.sampleCycles
	return opts, nil
}

// ---- simulator config (hintm-sim) --------------------------------------

// SimFlags collects the per-run simulator flags. Register with
// RegisterSim, then call Config/Scale after flag parsing.
type SimFlags struct {
	htm       *string
	hints     *string
	scale     *string
	smt       *int
	seed      *uint64
	sigBits   *uint64
	faults    *string
	watchdog  *int64
	maxCycles *int64
}

// RegisterSim registers the shared single-run flags (-htm, -hints, -scale,
// -smt, -seed, -sig-bits, -faults, -watchdog, -max-cycles) on fs.
func RegisterSim(fs *flag.FlagSet) *SimFlags {
	f := &SimFlags{}
	f.htm = fs.String("htm", "p8", "baseline HTM: p8|p8s|l1tm|infcap|stm")
	f.hints = fs.String("hints", "none", "hint mode: none|st|dyn|full")
	f.scale = fs.String("scale", "medium", "input scale: small|medium|large")
	f.smt = fs.Int("smt", 1, "hardware threads per core")
	f.seed = fs.Uint64("seed", 1, "simulation seed")
	f.sigBits = fs.Uint64("sig-bits", 0, "P8S read-signature size in bits (0 = config default, 1024)")
	f.faults = fs.String("faults", "", `fault-injection plan, e.g. "spurious=0.01,storm=0.001,inval-delay=200"`)
	f.watchdog = fs.Int64("watchdog", 0, "fail after this many cycles without forward progress (0 = off)")
	f.maxCycles = fs.Int64("max-cycles", 0, "hard cap on simulated cycles (0 = none)")
	return f
}

// Config validates the parsed flags into a sim.Config seeded from
// sim.DefaultConfig.
func (f *SimFlags) Config() (sim.Config, error) {
	cfg := sim.DefaultConfig()
	cfg.Seed = *f.seed
	cfg.SMT = *f.smt
	if *f.sigBits != 0 {
		cfg.SigBits = *f.sigBits
	}
	var err error
	if cfg.Faults, err = fault.ParsePlan(*f.faults); err != nil {
		return cfg, err
	}
	cfg.WatchdogCycles = *f.watchdog
	cfg.MaxCycles = *f.maxCycles
	if cfg.HTM, err = sim.ParseHTMKind(*f.htm); err != nil {
		return cfg, err
	}
	if cfg.Hints, err = sim.ParseHintMode(*f.hints); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// Scale parses the -scale flag.
func (f *SimFlags) Scale() (workloads.Scale, error) {
	return workloads.ParseScale(*f.scale)
}

// ---- fleet membership and resilience (hintm-served) ---------------------

// FleetFlags collects the fleet flags: membership (-node, -peers,
// -replicas) plus the resilience knobs (peer budget, breaker threshold and
// backoff, replication queue and workers, anti-entropy interval). Register
// with RegisterFleet, then call Config after flag parsing.
type FleetFlags struct {
	node             *string
	peers            *string
	replicas         *int
	peerBudget       *time.Duration
	breakerThreshold *int
	breakerBackoff   *time.Duration
	healthSeed       *uint64
	replQueue        *int
	replWorkers      *int
	antiEntropy      *time.Duration
}

// RegisterFleet registers the fleet flag group on fs.
func RegisterFleet(fs *flag.FlagSet) *FleetFlags {
	f := &FleetFlags{}
	f.node = fs.String("node", "", "this node's advertised base URL, e.g. http://127.0.0.1:8347")
	f.peers = fs.String("peers", "", "comma-separated base URLs of every fleet node, including -node")
	f.replicas = fs.Int("replicas", 0, "ring owners per key (0 = default)")
	f.peerBudget = fs.Duration("peer-budget", 0, "total peer time one cold miss may spend before simulating locally (0 = 2s default)")
	f.breakerThreshold = fs.Int("breaker-threshold", 0, "consecutive peer failures that open its circuit breaker (0 = default)")
	f.breakerBackoff = fs.Duration("breaker-backoff", 0, "initial open-breaker probe backoff, doubled per failed probe (0 = default)")
	f.healthSeed = fs.Uint64("health-seed", 0, "breaker backoff jitter seed (0 = default)")
	f.replQueue = fs.Int("repl-queue", 0, "async replication queue capacity; overflow drops oldest (0 = default)")
	f.replWorkers = fs.Int("repl-workers", 0, "async replication worker count (0 = default)")
	f.antiEntropy = fs.Duration("anti-entropy", 0, "background repair sweep interval (0 = off)")
	return f
}

// Enabled reports whether fleet mode was requested.
func (f *FleetFlags) Enabled() bool { return *f.peers != "" }

// Config validates the parsed flags into a server.FleetConfig. It errors
// when -peers is set without -node; the zero config (single node) is
// returned when fleet mode is off.
func (f *FleetFlags) Config() (server.FleetConfig, error) {
	if !f.Enabled() {
		return server.FleetConfig{}, nil
	}
	if *f.node == "" {
		return server.FleetConfig{}, fmt.Errorf("-peers requires -node (this node's own base URL)")
	}
	return server.FleetConfig{
		Self:             *f.node,
		Peers:            strings.Split(*f.peers, ","),
		Replicas:         *f.replicas,
		PeerBudget:       *f.peerBudget,
		BreakerThreshold: *f.breakerThreshold,
		BreakerBackoff:   *f.breakerBackoff,
		HealthSeed:       *f.healthSeed,
		ReplQueue:        *f.replQueue,
		ReplWorkers:      *f.replWorkers,
		AntiEntropy:      *f.antiEntropy,
	}, nil
}

// ---- result store -------------------------------------------------------

// RegisterStore registers the -store flag with the binary's default
// directory ("" = store disabled).
func RegisterStore(fs *flag.FlagSet, def string) *string {
	usage := "recall/persist every run in this content-addressed result store directory"
	if def == "" {
		usage += ` ("" = off)`
	}
	return fs.String("store", def, usage)
}

// OpenStore opens the flagged store directory; "" means no store (nil).
func OpenStore(dir string) (*store.Store, error) {
	if dir == "" {
		return nil, nil
	}
	return store.Open(dir)
}

// ---- lifecycle ----------------------------------------------------------

// Context returns a context cancelled by SIGINT/SIGTERM — containerized
// and service-managed runs get the same graceful path as an interactive
// ^C — and additionally by the timeout when it is > 0.
func Context(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	tctx, cancel := context.WithTimeout(ctx, timeout)
	return tctx, func() { cancel(); stop() }
}

// ---- pprof profiles ------------------------------------------------------

// ProfileFlags collects the -cpuprofile/-memprofile flags.
type ProfileFlags struct {
	prog string
	cpu  *string
	mem  *string
}

// RegisterProfiles registers -cpuprofile and -memprofile on fs; prog
// prefixes error output (e.g. "hintm-sim").
func RegisterProfiles(fs *flag.FlagSet, prog, of string) *ProfileFlags {
	p := &ProfileFlags{prog: prog}
	p.cpu = fs.String("cpuprofile", "", "write a Go CPU profile of the "+of+" to this file")
	p.mem = fs.String("memprofile", "", "write a Go heap profile of the "+of+" to this file")
	return p
}

// Start arms the requested profiles and returns the stop function that
// finalizes them. stop runs at most once, so it is safe to both defer it
// and call it explicitly on early-exit paths (os.Exit skips defers).
func (p *ProfileFlags) Start() (stop func(), err error) {
	if *p.cpu != "" {
		f, err := os.Create(*p.cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if *p.cpu != "" {
			pprof.StopCPUProfile()
		}
		if *p.mem != "" {
			f, err := os.Create(*p.mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: memprofile: %v\n", p.prog, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "%s: memprofile: %v\n", p.prog, err)
			}
		}
	}, nil
}
