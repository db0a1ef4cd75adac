// scrape.go reads the servers' own latency histograms off /metrics.
//
// The client-side latencies in a Report measure everything between the
// generator and the answer — goroutine wakeup jitter, the client HTTP
// stack, the network — while serve_request_seconds is observed inside
// the server around the resolve path alone. Scraping each target before
// and after the run and gating on the delta therefore checks what the
// servers actually did during this run: immune to client-side noise,
// and immune to whatever traffic hit the servers before the run started.
package loadgen

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"hintm/internal/obs"
)

// ServerScrape is one scrape of the targets: each target's aggregated
// serve_request_seconds histogram (summed across its label sets), keyed
// by target base URL. A target that has never served a request
// contributes a zero snapshot — normal for the before-scrape of a fresh
// server.
type ServerScrape map[string]obs.HistSnapshot

// ScrapeServers fetches and parses every target's /metrics. Any
// unreachable target or invalid exposition is an error: a scrape that
// silently dropped a target would understate latency, which is the
// wrong failure mode for an SLO gate.
func ScrapeServers(ctx context.Context, client *http.Client, targets []string) (ServerScrape, error) {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	out := make(ServerScrape, len(targets))
	for _, target := range targets {
		snap, err := scrapeOne(ctx, client, target)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", target, err)
		}
		out[target] = snap
	}
	return out, nil
}

func scrapeOne(ctx context.Context, client *http.Client, target string) (obs.HistSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/metrics", nil)
	if err != nil {
		return obs.HistSnapshot{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return obs.HistSnapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return obs.HistSnapshot{}, fmt.Errorf("HTTP %d from /metrics", resp.StatusCode)
	}
	fams, err := obs.ParseText(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return obs.HistSnapshot{}, err
	}
	f, ok := fams[obs.MetricServeRequestSec]
	if !ok {
		return obs.HistSnapshot{}, nil // nothing served yet: zero, not an error
	}
	return f.Histogram()
}

// Delta returns the serve_request_seconds window between two
// scrapes of the same targets: per-target after-minus-before, summed
// across targets into one histogram. A target present only in the after
// scrape (restarted mid-run, say) contributes its full after state.
func (after ServerScrape) Delta(before ServerScrape) obs.HistSnapshot {
	var total obs.HistSnapshot
	for target, a := range after {
		b := before[target]
		if len(b.Buckets) == len(a.Buckets) {
			a = a.Sub(b)
		}
		total = addHist(total, a)
	}
	return total
}

// addHist sums two snapshots bucket-wise. Snapshots with foreign bucket
// layouts cannot be combined meaningfully and are skipped — every server
// uses obs.DefLatencyBounds, so this only guards against targets running
// different versions.
func addHist(acc, s obs.HistSnapshot) obs.HistSnapshot {
	if len(s.Buckets) == 0 {
		return acc
	}
	if len(acc.Buckets) == 0 {
		out := obs.HistSnapshot{
			Bounds:  append([]float64(nil), s.Bounds...),
			Buckets: append([]uint64(nil), s.Buckets...),
			Count:   s.Count,
			Sum:     s.Sum,
		}
		return out
	}
	if len(acc.Buckets) != len(s.Buckets) {
		return acc
	}
	for i, c := range s.Buckets {
		acc.Buckets[i] += c
	}
	acc.Count += s.Count
	acc.Sum += s.Sum
	return acc
}
