package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hintm/internal/obs"
)

// metricsServer serves m as /metrics, exactly like hintm-served does.
func metricsServer(t *testing.T, m *obs.Metrics) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		if err := m.Render(w); err != nil {
			t.Errorf("Render: %v", err)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

func observe(m *obs.Metrics, outcome string, v float64, n int) {
	h := m.Histogram(obs.MetricServeRequestSec, obs.L("outcome", outcome))
	for i := 0; i < n; i++ {
		h.Observe(v)
	}
}

func TestScrapeDeltaAcrossFleet(t *testing.T) {
	m1, m2 := obs.NewMetrics(), obs.NewMetrics()
	ts1, ts2 := metricsServer(t, m1), metricsServer(t, m2)
	targets := []string{ts1.URL, ts2.URL}
	ctx := context.Background()

	// Pre-run traffic that the delta must exclude.
	observe(m1, "hit-store", 0.0005, 10)
	before, err := ScrapeServers(ctx, nil, targets)
	if err != nil {
		t.Fatalf("before scrape: %v", err)
	}
	if before[ts1.URL].Count != 10 || before[ts2.URL].Count != 0 {
		t.Fatalf("before counts: %d, %d", before[ts1.URL].Count, before[ts2.URL].Count)
	}

	// The run: fast hits on the first target, two slow simulations on the
	// second.
	observe(m1, "hit-store", 0.001, 5)
	observe(m2, "sim", 2.0, 2)
	after, err := ScrapeServers(ctx, nil, targets)
	if err != nil {
		t.Fatalf("after scrape: %v", err)
	}

	delta := after.Delta(before)
	if delta.Count != 7 {
		t.Fatalf("delta count = %d, want 7 (pre-run traffic must not leak in)", delta.Count)
	}
	rep := &Report{Server: delta}
	// p50 is a fast hit, p99 falls in the bucket holding the 2s simulations.
	if p50 := rep.ServerPercentile(0.50); p50 > 100*time.Millisecond {
		t.Errorf("server p50 = %v, want fast-hit territory", p50)
	}
	if p99 := rep.ServerPercentile(0.99); p99 < time.Second || p99 > 10*time.Second {
		t.Errorf("server p99 = %v, want within the 2s observation's bucket", p99)
	}

	// The gate: a bound below the simulations fails, a bound above passes.
	if err := rep.Check(SLO{ServerP99: 500 * time.Millisecond}); err == nil {
		t.Error("ServerP99 500ms should be violated by 2s simulations")
	} else if !strings.Contains(err.Error(), "server-side p99") {
		t.Errorf("violation message: %v", err)
	}
	if err := rep.Check(SLO{ServerP99: 10 * time.Second}); err != nil {
		t.Errorf("ServerP99 10s should pass: %v", err)
	}
}

func TestServerSLOWithoutSamplesIsViolation(t *testing.T) {
	rep := &Report{}
	if err := rep.Check(SLO{ServerP99: time.Second}); err == nil {
		t.Error("a server-side SLO with nothing scraped must not pass")
	}
}

func TestScrapeNoHistogramIsZero(t *testing.T) {
	m := obs.NewMetrics()
	m.Counter(obs.MetricServeRequests).Inc() // counters only, no histogram yet
	ts := metricsServer(t, m)
	got, err := ScrapeServers(context.Background(), nil, []string{ts.URL})
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	if got[ts.URL].Count != 0 {
		t.Errorf("fresh server snapshot count = %d, want 0", got[ts.URL].Count)
	}
}

func TestScrapeFailuresAreErrors(t *testing.T) {
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close()
	if _, err := ScrapeServers(context.Background(), nil, []string{down.URL}); err == nil {
		t.Error("unreachable target must be a scrape error")
	}

	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{not exposition"))
	}))
	defer garbage.Close()
	if _, err := ScrapeServers(context.Background(), nil, []string{garbage.URL}); err == nil {
		t.Error("invalid exposition must be a scrape error")
	}
}
