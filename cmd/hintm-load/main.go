// Command hintm-load drives one or more hintm-served instances with seeded
// open-loop synthetic load and gates on latency/hit-rate SLOs.
//
// Usage:
//
//	hintm-load -targets URL[,URL...] [flags]
//
// Flags:
//
//	-targets URL,URL,...      server base URLs, round-robin (required)
//	-n N                      total requests (default 100)
//	-rate R                   mean arrival rate, requests/sec (default 20)
//	-arrivals poisson|bursty  arrival process (default poisson)
//	-cv F                     inter-arrival coefficient of variation for
//	                          bursty arrivals (default 3)
//	-seed N                   schedule seed; same seed, same schedule
//	-workloads a,b,c          request-pool workloads (default labyrinth)
//	-scale small|medium|large request-pool input scale (default small)
//	-htms a,b,c               request-pool HTM kinds (default p8)
//	-hints a,b,c              request-pool hint modes (default none,full)
//	-timeout D                abort the whole run after D
//	-request-timeout D        per-request client deadline (default 5m);
//	                          expiries are reported as "timed out", a
//	                          category distinct from failures
//	-slo-p99 D                fail if p99 latency of successful requests
//	                          exceeds D (0 = don't check)
//	-slo-server-p99 D         fail if the server-side p99 exceeds D; the
//	                          generator scrapes every target's /metrics
//	                          before and after the run and gates on the
//	                          serve_request_seconds delta (0 = don't check)
//	-slo-hit-rate F           fail if the warm hit rate is below F (0..1)
//	-slo-max-failed N         fail if more than N requests hard-fail
//	-json                     also print the report as JSON
//
// The request pool is the cross product workloads × htms × hints at the
// given scale; request i submits pool[i % len(pool)], so -n larger than
// the pool revisits every spec — the warm phase an SLO hit-rate gate
// wants to measure. Throttled requests (429) count as shed load, not
// failures. The exit status is non-zero iff an SLO is violated or the
// run could not execute.
//
// The /metrics scrape always runs (best effort — a server without the
// endpoint just skips the server-side rows); with -slo-server-p99 set a
// failed scrape is fatal, because a gate that cannot measure must not
// pass.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hintm/internal/api"
	"hintm/internal/cli"
	"hintm/internal/loadgen"
	"hintm/internal/stats"
)

func main() {
	targets := flag.String("targets", "", "comma-separated server base URLs (required)")
	n := flag.Int("n", 100, "total requests")
	rate := flag.Float64("rate", 20, "mean arrival rate, requests/sec")
	arrivals := flag.String("arrivals", "poisson", "arrival process: poisson|bursty")
	cv := flag.Float64("cv", 3, "inter-arrival coefficient of variation for bursty arrivals")
	seed := flag.Uint64("seed", 1, "schedule seed (same seed, same schedule)")
	wls := flag.String("workloads", "labyrinth", "comma-separated request-pool workloads")
	scale := flag.String("scale", "small", "request-pool input scale: small|medium|large")
	htms := flag.String("htms", "p8", "comma-separated request-pool HTM kinds")
	hints := flag.String("hints", "none,full", "comma-separated request-pool hint modes")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this duration (0 = none)")
	reqTimeout := flag.Duration("request-timeout", 0, "per-request client deadline (0 = 5m default)")
	sloP99 := flag.Duration("slo-p99", 0, "fail if p99 latency exceeds this (0 = don't check)")
	sloServerP99 := flag.Duration("slo-server-p99", 0, "fail if the server-side p99 (scraped from /metrics) exceeds this (0 = don't check)")
	sloHit := flag.Float64("slo-hit-rate", 0, "fail if the warm hit rate is below this fraction (0 = don't check)")
	sloFailed := flag.Int("slo-max-failed", 0, "fail if more than this many requests hard-fail")
	asJSON := flag.Bool("json", false, "also print the report as JSON")
	flag.Parse()

	if *targets == "" {
		fatal(fmt.Errorf("-targets is required"))
	}
	process, err := loadgen.ParseProcess(*arrivals)
	if err != nil {
		fatal(err)
	}

	// The request pool: workloads × htms × hints, in flag order, so the
	// sequence of submitted specs is deterministic.
	var specs []api.RunSpec
	for _, wl := range strings.Split(*wls, ",") {
		for _, htm := range strings.Split(*htms, ",") {
			for _, hint := range strings.Split(*hints, ",") {
				specs = append(specs, api.RunSpec{Workload: wl, Scale: *scale, HTM: htm, Hints: hint})
			}
		}
	}

	cfg := loadgen.Config{
		Targets: strings.Split(*targets, ","),
		Specs:   specs,
		N:       *n,
		Rate:    *rate,
		Process: process,
		CV:      *cv,
		Seed:    *seed,
		Timeout: *reqTimeout,
	}
	ctx, stop := cli.Context(*timeout)
	defer stop()

	// Scrape the targets' histograms around the run: the delta is the
	// server-side view of exactly this run's requests.
	before, scrapeErr := loadgen.ScrapeServers(ctx, nil, cfg.Targets)
	if scrapeErr != nil && *sloServerP99 > 0 {
		fatal(fmt.Errorf("pre-run scrape: %w", scrapeErr))
	}

	start := time.Now()
	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start)

	if scrapeErr == nil {
		after, err := loadgen.ScrapeServers(ctx, nil, cfg.Targets)
		if err != nil {
			scrapeErr = err
			if *sloServerP99 > 0 {
				fatal(fmt.Errorf("post-run scrape: %w", err))
			}
		} else {
			rep.Server = after.Delta(before)
		}
	}

	fmt.Printf("hintm-load: %d requests over %v (%s arrivals, %.1f/s, seed %d, pool %d specs, %d targets)\n",
		rep.Sent, wall.Round(time.Millisecond), process, *rate, *seed, len(specs), len(cfg.Targets))
	t := stats.NewTable("metric", "value")
	t.Row("hits (warm)", rep.Hits)
	t.Row("simulated (cold)", rep.Simulated)
	t.Row("throttled (429)", rep.Throttled)
	t.Row("timed out", rep.TimedOut)
	t.Row("failed", rep.Failed)
	t.Row("warm hit rate", stats.Pct(rep.HitRate()))
	t.Row("latency p50", rep.Percentile(0.50).Round(time.Millisecond))
	t.Row("latency p90", rep.Percentile(0.90).Round(time.Millisecond))
	t.Row("latency p99", rep.Percentile(0.99).Round(time.Millisecond))
	if rep.Server.Count > 0 {
		t.Row("server samples", rep.Server.Count)
		t.Row("server p50", rep.ServerPercentile(0.50).Round(time.Millisecond))
		t.Row("server p99", rep.ServerPercentile(0.99).Round(time.Millisecond))
	}
	t.Render(os.Stdout)
	if scrapeErr != nil {
		fmt.Fprintf(os.Stderr, "hintm-load: /metrics scrape skipped: %v\n", scrapeErr)
	}

	if *asJSON {
		out := map[string]any{
			"sent": rep.Sent, "hits": rep.Hits,
			"simulated": rep.Simulated, "throttled": rep.Throttled,
			"timedOut": rep.TimedOut, "failed": rep.Failed,
			"hitRate":     rep.HitRate(),
			"p50Ms":       rep.Percentile(0.50).Seconds() * 1000,
			"p90Ms":       rep.Percentile(0.90).Seconds() * 1000,
			"p99Ms":       rep.Percentile(0.99).Seconds() * 1000,
			"serverCount": rep.Server.Count,
			"serverP50Ms": rep.ServerPercentile(0.50).Seconds() * 1000,
			"serverP99Ms": rep.ServerPercentile(0.99).Seconds() * 1000,
			"wallSeconds": wall.Seconds(),
			"seed":        *seed,
			"arrivals":    process.String(),
			"ratePerSec":  *rate,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	}

	slo := loadgen.SLO{P99: *sloP99, ServerP99: *sloServerP99, MinHitRate: *sloHit, MaxFailed: *sloFailed}
	if err := rep.Check(slo); err != nil {
		fatal(fmt.Errorf("SLO violated:\n%w", err))
	}
	if *sloP99 > 0 || *sloServerP99 > 0 || *sloHit > 0 {
		fmt.Println("hintm-load: SLOs met")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hintm-load:", err)
	os.Exit(1)
}
