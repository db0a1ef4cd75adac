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
	MetricStoreReplicas    = "store_replicas_total"
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
	MetricServePhaseSec   = "serve_phase_seconds"

	// Fleet: peer fetch, hedging, breakers, replication, anti-entropy.
	MetricProbes           = "fleet_probe_total"
	MetricPeerFetches      = "fleet_peer_fetch_total"
	MetricPeerErrors       = "fleet_peer_errors_total"
	MetricPeerHits         = "fleet_peer_hits_total"
	MetricPeerInvalid      = "fleet_peer_invalid_total"
	MetricHedges           = "fleet_hedge_total"
	MetricHedgeWins        = "fleet_hedge_wins_total"
	MetricBreakerSkipped   = "fleet_breaker_skipped_total"
	MetricBreakerHalfOpen  = "fleet_breaker_halfopen_total"
	MetricBreakerClosed    = "fleet_breaker_closed_total"
	MetricBreakerOpened    = "fleet_breaker_opened_total"
	MetricBreakerOpen      = "fleet_breaker_open"
	MetricServedForPeer    = "fleet_served_for_peer_total"
	MetricReplicatedIn     = "fleet_replicated_in_total"
	MetricForwards         = "fleet_forward_total"
	MetricForwardErrors    = "fleet_forward_errors_total"
	MetricReplDropped      = "fleet_repl_dropped_total"
	MetricReplQueueDepth   = "fleet_repl_queue_depth"
	MetricReplRetries      = "fleet_repl_retries_total"
	MetricReplSkipped      = "fleet_repl_skipped_total"
	MetricAntiEntropySweep = "fleet_antientropy_sweeps_total"
	MetricRepairKeys       = "fleet_repair_keys_total"

	// Fleet tracing (internal/obs FleetRecorder).
	MetricTraceRoots   = "trace_roots_total"
	MetricTraceSpans   = "trace_spans_total"
	MetricTraceEvicted = "trace_evicted_total"

	// Chaos proxy (internal/chaos).
	MetricChaosRequests  = "chaos_requests_total"
	MetricChaosForwarded = "chaos_forwarded_total"
	MetricChaosInjected  = "chaos_injected_total"
	MetricChaosBytes     = "chaos_proxied_bytes_total"
)

// defs is every declared family. Keep sorted by name within each group so
// diffs stay readable; Render sorts again before writing.
var defs = []MetricDef{
	{MetricSimRuns, TypeCounter, "Simulations actually executed (cold paths only; warm paths never increment this)."},
	{MetricInflight, TypeGauge, "Simulations currently executing on the scheduler's worker pool."},

	{MetricStorePuts, TypeCounter, "Results persisted into the content-addressed store."},
	{MetricStorePutErrors, TypeCounter, "Failed store writes (result still served from memory)."},
	{MetricStoreReplicas, TypeCounter, "Raw peer objects persisted verbatim after content-address validation."},
	{MetricStoreHits, TypeCounter, "Store lookups answered from a persisted entry."},
	{MetricStoreMisses, TypeCounter, "Store lookups that found no (valid) entry."},
	{MetricStoreQuarantined, TypeCounter, "Corrupt store entries moved aside during lookup or index rebuild."},
	{MetricStoreEntries, TypeGauge, "Entries currently in the store index."},

	{MetricServeRequests, TypeCounter, "HTTP API requests accepted (all endpoints)."},
	{MetricServeThrottled, TypeCounter, "Submissions refused with 429 by bounded admission."},
	{MetricServeQueueDepth, TypeGauge, "Admitted-but-unfinished runs."},
	{MetricServeActive, TypeGauge, "Requests currently inside a handler."},
	{MetricServeRequestSec, TypeHistogram, "End-to-end resolve latency by node and outcome (hit-store, hit-peer, sim, error)."},
	{MetricServePhaseSec, TypeHistogram, "Per-phase serve latency by node, phase (admission/store/peer/hedge/sim/replication), and outcome."},

	{MetricProbes, TypeCounter, "Health probes sent to open-breaker peers."},
	{MetricPeerFetches, TypeCounter, "Peer fetch attempts launched on cold misses."},
	{MetricPeerErrors, TypeCounter, "Peer fetches that failed (status, transport, or decode)."},
	{MetricPeerHits, TypeCounter, "Cold misses answered by a ring owner's store."},
	{MetricPeerInvalid, TypeCounter, "Peer payloads rejected by content-address validation."},
	{MetricHedges, TypeCounter, "Hedged second fetches fired after the p99 delay."},
	{MetricHedgeWins, TypeCounter, "Hedged fetches that answered before the primary."},
	{MetricBreakerSkipped, TypeCounter, "Peer fetch candidates skipped because their breaker was open."},
	{MetricBreakerHalfOpen, TypeCounter, "Breaker transitions open->half-open (probe admitted)."},
	{MetricBreakerClosed, TypeCounter, "Breaker transitions half-open->closed (probe succeeded)."},
	{MetricBreakerOpened, TypeCounter, "Breaker transitions closed->open (failure threshold reached)."},
	{MetricBreakerOpen, TypeGauge, "Peer circuit breakers currently open."},
	{MetricServedForPeer, TypeCounter, "Local-only lookups served to fleet peers (?local=1)."},
	{MetricReplicatedIn, TypeCounter, "Replication PUTs accepted from peers."},
	{MetricForwards, TypeCounter, "Replication pushes attempted to ring owners."},
	{MetricForwardErrors, TypeCounter, "Replication pushes that exhausted their retries."},
	{MetricReplDropped, TypeCounter, "Replication queue overflows (oldest item dropped)."},
	{MetricReplQueueDepth, TypeGauge, "Replication items queued or being pushed."},
	{MetricReplRetries, TypeCounter, "Replication push retries after a failed attempt."},
	{MetricReplSkipped, TypeCounter, "Replication pushes skipped because the target's breaker was open."},
	{MetricAntiEntropySweep, TypeCounter, "Anti-entropy sweeps completed."},
	{MetricRepairKeys, TypeCounter, "Keys queued for repair by anti-entropy sweeps."},

	{MetricTraceRoots, TypeCounter, "Request traces rooted on this node."},
	{MetricTraceSpans, TypeCounter, "Spans recorded across all traces."},
	{MetricTraceEvicted, TypeCounter, "Traces evicted by the recorder's capacity bound."},

	{MetricChaosRequests, TypeCounter, "Requests received by the chaos proxy."},
	{MetricChaosForwarded, TypeCounter, "Requests the proxy forwarded to the target untouched."},
	{MetricChaosInjected, TypeCounter, "Faults injected, labeled by behavior (killed, blackholed, flaked, delayed, corrupted, slow-loris)."},
	{MetricChaosBytes, TypeCounter, "Response bytes proxied to clients (including corrupted and truncated bodies)."},
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
