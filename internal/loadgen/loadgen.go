// Package loadgen is a seeded open-loop synthetic load generator for
// hintm-served.
//
// Open-loop means arrivals are decided by a clock, not by completions: the
// generator computes the entire arrival schedule up front from a seeded
// RNG and fires request i at its offset whether or not request i-1 has
// answered. That is the property that makes a load test honest about
// queueing — a closed-loop client slows down exactly when the server
// struggles, hiding the latency it should be measuring (the classic
// coordinated-omission trap).
//
// Two arrival processes are provided: Poisson (exponential inter-arrivals,
// the memoryless baseline) and Bursty (Gamma inter-arrivals with a
// configurable coefficient of variation > 1, so requests clump into
// bursts separated by lulls at the same mean rate). Both are driven by
// math/rand with an explicit seed: the same (seed, n, rate, process)
// always produces the same schedule and the same request sequence, so a
// load run is reproducible end to end — only the measured latencies vary.
//
// The generator speaks hintm-api/v2 (POST /v1/runs?wait=1, one spec per
// request, round-robin across targets) and folds the outcomes into a
// Report: latency quantiles, hit/simulated/throttled counts, and the warm
// hit rate, with SLO thresholds checked by Report.Check.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"hintm/internal/api"
	"hintm/internal/obs"
)

// Process selects the arrival process.
type Process int

const (
	// Poisson arrivals: exponential inter-arrival times.
	Poisson Process = iota
	// Bursty arrivals: Gamma inter-arrival times with CV > 1 — same mean
	// rate as Poisson, but clumped.
	Bursty
)

func (p Process) String() string {
	if p == Bursty {
		return "bursty"
	}
	return "poisson"
}

// ParseProcess parses "poisson" or "bursty".
func ParseProcess(s string) (Process, error) {
	switch strings.ToLower(s) {
	case "poisson":
		return Poisson, nil
	case "bursty":
		return Bursty, nil
	}
	return 0, fmt.Errorf("unknown arrival process %q (want poisson|bursty)", s)
}

// Config describes one load run.
type Config struct {
	// Targets are the server base URLs; request i goes to Targets[i % len].
	Targets []string
	// Specs is the request pool; request i submits Specs[i % len], so a
	// pass longer than the pool revisits every spec (the warm phase).
	Specs []api.RunSpec
	// N is the total number of requests.
	N int
	// Rate is the mean arrival rate in requests/second.
	Rate float64
	// Process selects Poisson or Bursty arrivals.
	Process Process
	// CV is the inter-arrival coefficient of variation for Bursty
	// (ignored for Poisson; default 3).
	CV float64
	// Seed drives the schedule; same seed, same schedule.
	Seed uint64
	// Timeout bounds each request when Client is nil (0 = 5 minutes — a
	// load test must observe slow requests by default, not abort them).
	// Requests that hit it are reported as TimedOut, a distinct category
	// from other failures: against a degraded server, "slow" and "broken"
	// are different diagnoses.
	Timeout time.Duration
	// Client performs the HTTP calls (nil = a client with Timeout).
	Client *http.Client
}

// Schedule returns the deterministic arrival offsets (from test start) for
// cfg: N offsets, non-decreasing, mean spacing 1/Rate.
func Schedule(cfg Config) []time.Duration {
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	cv := cfg.CV
	if cv <= 0 {
		cv = 3
	}
	// Gamma with shape k has CV = 1/sqrt(k); scale holds the mean at
	// 1/Rate. k=1 degenerates to the exponential, i.e. Poisson arrivals.
	shape := 1.0
	if cfg.Process == Bursty {
		shape = 1 / (cv * cv)
	}
	scale := 1 / (cfg.Rate * shape)
	offsets := make([]time.Duration, cfg.N)
	var t float64 // seconds
	for i := range offsets {
		t += gamma(rng, shape, scale)
		offsets[i] = time.Duration(t * float64(time.Second))
	}
	return offsets
}

// gamma samples Gamma(shape, scale) via Marsaglia–Tsang, with the usual
// boost for shape < 1. Deterministic given the rng state.
func gamma(rng *rand.Rand, shape, scale float64) float64 {
	if shape < 1 {
		// Gamma(k) = Gamma(k+1) · U^(1/k)
		return gamma(rng, shape+1, scale) * math.Pow(rng.Float64(), 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x || math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Result is one request's outcome.
type Result struct {
	Index   int
	Target  string
	HTTP    int           // HTTP status code (0 on transport error)
	Status  string        // RunStatus.Status: hit|done|failed ("" on error)
	Source  string        // RunStatus.Source: store|sim
	Latency time.Duration // request round trip
	Err     error
}

// Report aggregates a load run.
type Report struct {
	Sent      int
	Hits      int // answered from the store without simulating
	Simulated int
	Throttled int // 429s — admission control shed the request
	TimedOut  int // client-side deadline expired before an answer
	Failed    int // run failures and transport/HTTP errors (excl. timeouts)
	Results   []Result

	// Server is the serve_request_seconds delta, summed over targets, scraped around
	// the run — what the servers measured, as opposed to the client-side
	// latencies above. Zero unless the caller scraped; see ScrapeServers.
	Server obs.HistSnapshot

	latencies []time.Duration // sorted, successful requests only
}

// HitRate is the fraction of non-throttled requests answered warm.
func (r *Report) HitRate() float64 {
	den := r.Sent - r.Throttled
	if den == 0 {
		return 0
	}
	return float64(r.Hits) / float64(den)
}

// Percentile returns the q-quantile (0 < q <= 1) of successful-request
// latency, 0 if none.
func (r *Report) Percentile(q float64) time.Duration {
	if len(r.latencies) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(r.latencies)))) - 1
	if i < 0 {
		i = 0
	}
	return r.latencies[i]
}

// ServerPercentile returns the q-quantile of the scraped server-side
// request-latency delta (Report.Server), 0 if nothing was scraped.
func (r *Report) ServerPercentile(q float64) time.Duration {
	return time.Duration(r.Server.Quantile(q) * float64(time.Second))
}

// SLO is the service-level objective a load run is gated on. Zero fields
// are not checked.
type SLO struct {
	// P99 bounds the 99th-percentile latency of successful requests.
	P99 time.Duration
	// ServerP99 bounds the server-side 99th-percentile request latency,
	// estimated from the scraped serve_request_seconds delta
	// (Report.Server). Gating with no scraped samples is a violation, not
	// a pass — an SLO that silently stops measuring is no SLO.
	ServerP99 time.Duration
	// MinHitRate is the minimum warm hit rate (0..1).
	MinHitRate float64
	// MaxFailed bounds hard failures plus timeouts (throttled requests are
	// shed load, not failures — they are reported but never counted here).
	MaxFailed int
}

// Check returns an error describing every violated objective, nil if the
// run met them all.
func (r *Report) Check(slo SLO) error {
	var errs []error
	if slo.P99 > 0 {
		if got := r.Percentile(0.99); got > slo.P99 {
			errs = append(errs, fmt.Errorf("p99 latency %v exceeds SLO %v", got, slo.P99))
		}
	}
	if slo.ServerP99 > 0 {
		if r.Server.Count == 0 {
			errs = append(errs, errors.New("server-side p99 SLO set but no serve_request_seconds samples were scraped"))
		} else if got := r.ServerPercentile(0.99); got > slo.ServerP99 {
			errs = append(errs, fmt.Errorf("server-side p99 latency %v exceeds SLO %v", got, slo.ServerP99))
		}
	}
	if slo.MinHitRate > 0 {
		if got := r.HitRate(); got < slo.MinHitRate {
			errs = append(errs, fmt.Errorf("warm hit rate %.1f%% below SLO %.1f%%",
				got*100, slo.MinHitRate*100))
		}
	}
	if r.Failed+r.TimedOut > slo.MaxFailed {
		errs = append(errs, fmt.Errorf("%d requests failed + %d timed out (max %d)",
			r.Failed, r.TimedOut, slo.MaxFailed))
	}
	return errors.Join(errs...)
}

// Run executes the load run: every request fires at its scheduled offset
// (open loop — no waiting for earlier responses), round-robin across
// targets, and the outcomes fold into a Report. ctx cancellation stops
// launching new requests; in-flight ones finish.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if len(cfg.Targets) == 0 || len(cfg.Specs) == 0 || cfg.N <= 0 || cfg.Rate <= 0 {
		return nil, errors.New("loadgen: need targets, specs, n > 0, rate > 0")
	}
	client := cfg.Client
	if client == nil {
		timeout := cfg.Timeout
		if timeout <= 0 {
			timeout = 5 * time.Minute
		}
		client = &http.Client{Timeout: timeout}
	}
	offsets := Schedule(cfg)
	results := make([]Result, cfg.N)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.N; i++ {
		if d := time.Until(start.Add(offsets[i])); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			results = results[:i]
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = oneRequest(ctx, client, cfg.Targets[i%len(cfg.Targets)], cfg.Specs[i%len(cfg.Specs)], i)
		}(i)
	}
	wg.Wait()

	rep := &Report{Sent: len(results), Results: results}
	for _, res := range results {
		switch {
		case res.HTTP == http.StatusTooManyRequests:
			rep.Throttled++
		case isTimeout(res.Err):
			rep.TimedOut++
		case res.Err != nil || res.Status == "failed":
			rep.Failed++
		case res.Status == "hit":
			rep.Hits++
			rep.latencies = append(rep.latencies, res.Latency)
		case res.Status == "done":
			rep.Simulated++
			rep.latencies = append(rep.latencies, res.Latency)
		default:
			rep.Failed++
		}
	}
	sort.Slice(rep.latencies, func(a, b int) bool { return rep.latencies[a] < rep.latencies[b] })
	return rep, nil
}

// isTimeout reports whether err is a client-side deadline expiry — the
// http.Client timeout (a net.Error with Timeout true) or a context
// deadline that propagated into the transport.
func isTimeout(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// oneRequest submits one spec with ?wait=1 and classifies the outcome.
func oneRequest(ctx context.Context, client *http.Client, target string, spec api.RunSpec, index int) Result {
	res := Result{Index: index, Target: target}
	body, _ := json.Marshal(api.RunsRequest{Schema: api.Schema, Requests: []api.RunSpec{spec}})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/v1/runs?wait=1", bytes.NewReader(body))
	if err != nil {
		res.Err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	begin := time.Now()
	resp, err := client.Do(req)
	res.Latency = time.Since(begin)
	if err != nil {
		res.Err = err
		return res
	}
	defer resp.Body.Close()
	res.HTTP = resp.StatusCode
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		res.Err = err
		return res
	}
	if resp.StatusCode != http.StatusOK {
		var env api.ErrorEnvelope
		if json.Unmarshal(raw, &env) == nil && env.Error != nil {
			res.Err = env.Error
		} else {
			res.Err = fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		return res
	}
	var out api.RunsResponse
	if err := json.Unmarshal(raw, &out); err != nil || len(out.Runs) != 1 {
		res.Err = fmt.Errorf("malformed response: %v", err)
		return res
	}
	res.Status = out.Runs[0].Status
	res.Source = out.Runs[0].Source
	if out.Runs[0].Error != nil {
		res.Err = out.Runs[0].Error
	}
	return res
}
