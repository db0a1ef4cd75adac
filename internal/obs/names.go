package obs

// names.go is the single registry of metric families the hintm binaries
// export. Every instrumentation site references these constants instead of
// ad-hoc strings, Render uses the declarations to emit `# HELP`/`# TYPE`
// exposition headers, and a test asserts `/metrics` output contains only
// declared families — so a typo in a metric name is a test failure, not a
// silently forked time series.

// MetricType is the Prometheus exposition type of a metric family.
type MetricType string

const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// MetricDef declares one metric family: its exposition name, type, and
// HELP text.
type MetricDef struct {
	Name string
	Type MetricType
	Help string
}

// Declared metric family names. Grouped by owning subsystem.
const (
	// Scheduler (internal/harness).
	MetricSimRuns  = "runner_sim_runs_total"
	MetricInflight = "runner_inflight"

	// Content-addressed result store (internal/store, internal/harness).
	MetricStorePuts        = "store_puts_total"
	MetricStorePutErrors   = "store_put_errors_total"
	MetricStoreHits        = "store_hits_total"
	MetricStoreMisses      = "store_misses_total"
	MetricStoreQuarantined = "store_quarantined_total"
	MetricStoreEntries     = "store_entries"

	// Serving layer (internal/server).
	MetricServeRequests   = "serve_requests_total"
	MetricServeThrottled  = "serve_throttled_total"
	MetricServeQueueDepth = "serve_queue_depth"
	MetricServeActive     = "serve_active"
	MetricServeRequestSec = "serve_request_seconds"
)

// defs is every declared family. Keep sorted by name within each group so
// diffs stay readable; Render sorts again before writing.
var defs = []MetricDef{
	{MetricSimRuns, TypeCounter, "Simulations actually executed (cold paths only; warm paths never increment this)."},
	{MetricInflight, TypeGauge, "Simulations currently executing on the scheduler's worker pool."},

	{MetricStorePuts, TypeCounter, "Results persisted into the content-addressed store."},
	{MetricStorePutErrors, TypeCounter, "Failed store writes (result still served from memory)."},
	{MetricStoreHits, TypeCounter, "Store lookups answered from a persisted entry."},
	{MetricStoreMisses, TypeCounter, "Store lookups that found no (valid) entry."},
	{MetricStoreQuarantined, TypeCounter, "Corrupt store entries moved aside during lookup or index rebuild."},
	{MetricStoreEntries, TypeGauge, "Entries currently in the store index."},

	{MetricServeRequests, TypeCounter, "HTTP API requests accepted (all endpoints)."},
	{MetricServeThrottled, TypeCounter, "Submissions refused with 429 by bounded admission."},
	{MetricServeQueueDepth, TypeGauge, "Admitted-but-unfinished runs."},
	{MetricServeActive, TypeGauge, "Requests currently inside a handler."},
	{MetricServeRequestSec, TypeHistogram, "End-to-end resolve latency by outcome (hit-store, sim, failed)."},
}

// Lookup returns the declaration for a metric family name.
func Lookup(name string) (MetricDef, bool) {
	d, ok := declared[name]
	return d, ok
}

// Declared returns every declared metric family, sorted by name.
func Declared() []MetricDef {
	out := make([]MetricDef, len(defs))
	copy(out, defs)
	return out
}

var declared = func() map[string]MetricDef {
	m := make(map[string]MetricDef, len(defs))
	for _, d := range defs {
		if _, dup := m[d.Name]; dup {
			panic("obs: duplicate metric declaration " + d.Name)
		}
		m[d.Name] = d
	}
	return m
}()
