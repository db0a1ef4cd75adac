// Package server is the hintm-served HTTP service: a long-running process
// that turns experiments into cacheable, addressable, queryable artifacts.
//
// Request lifecycle: POST /v1/runs accepts a run spec (or a grid of them)
// and POST /v1/grids accepts a batched grid answered as an NDJSON event
// stream. Each spec's content address (the harness's canonical key) is
// derived up front; store hits answer immediately; a miss enters the
// scheduler's worker pool, where single-flight dedup guarantees each
// distinct request simulates at most once. Completed runs persist into the
// store, so a result computed once is a warm hit forever — across clients,
// across restarts, and across every tool sharing the store directory.
//
// Admission control: the server carries a bounded work queue. Submissions
// that would exceed it right now are refused with 429 and a Retry-After
// header rather than queued without bound — under overload the service
// sheds load, it does not grow latency indefinitely. A submission larger
// than the whole queue can never be admitted, so it is a 400 instead.
//
// Wire format: hintm-api/v2 (see internal/api). Every response carries the
// schema in its body and the X-Hintm-Api header; errors are typed
// {code, message, detail} envelopes.
//
// Byte-identity: GET /v1/runs/{key} responds with the store's raw object
// bytes verbatim, so every GET of the same key, cold or warm, today or
// after a restart, returns a byte-identical body.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"hintm/internal/api"
	"hintm/internal/harness"
	"hintm/internal/obs"
	"hintm/internal/sim"
	"hintm/internal/store"
	"hintm/internal/workloads"
)

// DefaultQueueLimit bounds admitted-but-unfinished runs (async queue plus
// active synchronous work) when Config.QueueLimit is zero.
const DefaultQueueLimit = 256

// Config assembles a Server.
type Config struct {
	// Store is the content-addressed result store (required).
	Store *store.Store
	// Options configures the scheduler; Options.Store/Metrics are
	// overwritten with the server's own.
	Options harness.Options
	// Metrics receives every component's counters (nil = a fresh registry).
	Metrics *obs.Metrics
	// QueueLimit bounds the admitted-but-unfinished run count; submissions
	// beyond it get 429 + Retry-After, and submissions larger than it get
	// 400 (0 = DefaultQueueLimit).
	QueueLimit int
}

// Server handles the /v1 API. Create with New, expose via Handler, and
// call Drain on shutdown to let enqueued runs finish persisting.
type Server struct {
	store   *store.Store
	runner  *harness.Runner
	opts    harness.Options
	metrics *obs.Metrics

	queueLimit int
	started    time.Time // /healthz reports uptime from here

	// baseCtx outlives individual HTTP requests: enqueued runs must not
	// die with the client connection that triggered them. Cancelling it
	// (via the cancel returned at New) aborts in-flight simulations during
	// a forced shutdown.
	baseCtx context.Context
	cancel  context.CancelFunc

	mux *http.ServeMux
	wg  sync.WaitGroup

	mu       sync.Mutex
	inflight map[string]bool
	active   int // admitted synchronous work (wait/grid runs) not in inflight
	draining bool
}

// New builds a server over cfg.
func New(cfg Config) *Server {
	m := cfg.Metrics
	if m == nil {
		m = obs.NewMetrics()
	}
	cfg.Store.SetMetrics(m)
	opts := cfg.Options
	opts.Store = cfg.Store
	opts.Metrics = m
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		store:      cfg.Store,
		runner:     harness.NewRunner(opts),
		opts:       opts,
		metrics:    m,
		queueLimit: cfg.QueueLimit,
		baseCtx:    ctx,
		cancel:     cancel,
		mux:        http.NewServeMux(),
		inflight:   make(map[string]bool),
		started:    time.Now(),
	}
	if s.queueLimit <= 0 {
		s.queueLimit = DefaultQueueLimit
	}
	s.mux.HandleFunc("POST /v1/runs", s.handleRuns)
	s.mux.HandleFunc("POST /v1/grids", s.handleGrids)
	s.mux.HandleFunc("GET /v1/runs", s.handleList)
	s.mux.HandleFunc("GET /v1/runs/{key}", s.handleRun)
	s.mux.HandleFunc("GET /v1/figures/{name}", s.handleFigure)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain waits for every enqueued run to complete (and persist) or for ctx
// to expire, whichever comes first; on expiry it cancels the in-flight
// simulations. Call after the HTTP listener has stopped accepting.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		return fmt.Errorf("server: drain cut short: %w", ctx.Err())
	}
}

// ---- admission control ------------------------------------------------

// admit reserves n slots of the bounded work queue, or refuses. Callers
// must release exactly n slots (possibly from other goroutines) once the
// admitted work finishes.
func (s *Server) admit(n int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active+len(s.inflight)+n > s.queueLimit {
		s.metrics.Counter(obs.MetricServeThrottled).Inc()
		return false
	}
	s.active += n
	return true
}

// release gives back n admitted slots.
func (s *Server) release(n int) {
	s.mu.Lock()
	s.active -= n
	s.mu.Unlock()
}

// load reports the admitted-but-unfinished run count.
func (s *Server) load() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active + len(s.inflight)
}

// checkSize refuses a submission larger than the whole queue. admit would
// refuse it at any load, so it is a 400 without Retry-After: retrying the
// same submission can never succeed.
func (s *Server) checkSize(n int) *api.Error {
	if n <= s.queueLimit {
		return nil
	}
	e := api.Errorf(api.CodeBadRequest, "submission of %d runs exceeds the queue limit of %d", n, s.queueLimit)
	e.Detail = "split the submission or raise -queue-limit"
	return e
}

// ---- request parsing --------------------------------------------------

// parse resolves the wire spec into a harness Request.
func (s *Server) parse(spec api.RunSpec) (harness.Request, error) {
	var req harness.Request
	if spec.Workload == "" {
		return req, errors.New("missing workload")
	}
	if _, err := workloads.ByName(spec.Workload); err != nil {
		return req, err
	}
	req.Workload = spec.Workload
	req.Scale = s.opts.Scale
	if spec.Scale != "" {
		var err error
		if req.Scale, err = workloads.ParseScale(spec.Scale); err != nil {
			return req, err
		}
	}
	if spec.HTM != "" {
		var err error
		if req.HTM, err = sim.ParseHTMKind(spec.HTM); err != nil {
			return req, err
		}
	}
	if spec.Hints != "" {
		var err error
		if req.Hints, err = sim.ParseHintMode(spec.Hints); err != nil {
			return req, err
		}
	}
	req.SMT = spec.SMT
	return req, nil
}

// parseAll parses a batch, attributing the first failure to its index.
func (s *Server) parseAll(specs []api.RunSpec) ([]harness.Request, *api.Error) {
	reqs := make([]harness.Request, len(specs))
	for i, spec := range specs {
		var err error
		if reqs[i], err = s.parse(spec); err != nil {
			e := api.Errorf(api.CodeBadRequest, "invalid run spec")
			e.Detail = fmt.Sprintf("requests[%d]: %v", i, err)
			return nil, e
		}
	}
	return reqs, nil
}

// checkSchema validates an explicit request-body schema declaration.
func checkSchema(schema string) *api.Error {
	if schema != "" && schema != api.Schema {
		e := api.Errorf(api.CodeBadRequest, "unsupported request schema %q", schema)
		e.Detail = "this server speaks " + api.Schema
		return e
	}
	return nil
}

// ---- the resolution pipeline ------------------------------------------

// observeRequest records one resolve's wall time into the
// serve_request_seconds histogram, by outcome.
func (s *Server) observeRequest(begin time.Time, outcome string) {
	s.metrics.Histogram(obs.MetricServeRequestSec, obs.L("outcome", outcome)).ObserveDuration(time.Since(begin))
}

// resolve answers one request end to end: the store, and only on a miss
// the simulator. The warm path never simulates: it is bounded by one store
// lookup.
func (s *Server) resolve(ctx context.Context, req harness.Request) api.RunStatus {
	key := s.runner.StoreKey(req)
	begin := time.Now()
	rs := api.RunStatus{Key: key, Request: req.String(), ResultURL: "/v1/runs/" + key}
	if s.store.Contains(key) {
		rs.Status, rs.Source = "hit", "store"
		s.observeRequest(begin, "hit-store")
		return rs
	}
	if _, err := s.runner.Run(ctx, req); err != nil {
		rs.Status = "failed"
		rs.Error = &api.Error{Code: api.CodeRunFailed, Message: err.Error()}
		s.observeRequest(begin, "failed")
		return rs
	}
	rs.Status, rs.Source = "done", "sim"
	s.observeRequest(begin, "sim")
	return rs
}

// ---- handlers ----------------------------------------------------------

// handleRuns is POST /v1/runs: submit a request or a grid. With ?wait=1
// the response blocks until every submitted run completes (store hits
// still answer without simulating); without it, misses are enqueued and
// the client polls GET /v1/runs/{key}.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	s.metrics.Counter(obs.MetricServeRequests).Inc()
	if !s.checkVersion(w, r) {
		return
	}
	var body api.RunsRequest
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, api.Errorf(api.CodeBadRequest, "bad request body: %v", err))
		return
	}
	if e := checkSchema(body.Schema); e != nil {
		writeError(w, http.StatusBadRequest, e)
		return
	}
	specs := body.Requests
	if len(specs) == 0 {
		specs = []api.RunSpec{body.RunSpec}
	}
	reqs, perr := s.parseAll(specs)
	if perr == nil {
		perr = s.checkSize(len(reqs))
	}
	if perr != nil {
		writeError(w, http.StatusBadRequest, perr)
		return
	}
	if !s.admit(len(reqs)) {
		s.throttle(w, len(reqs))
		return
	}
	transferred := 0 // slots handed off to async goroutines

	wait := r.URL.Query().Get("wait") != ""
	out := api.RunsResponse{Schema: api.Schema, Runs: make([]api.RunStatus, len(reqs))}
	status := http.StatusOK
	for i, req := range reqs {
		var rs api.RunStatus
		if wait {
			// The runner single-flights concurrent duplicates, so a grid
			// containing repeats still simulates each point once.
			rs = s.resolve(r.Context(), req)
		} else {
			key := s.runner.StoreKey(req)
			rs = api.RunStatus{Key: key, Request: req.String(), ResultURL: "/v1/runs/" + key}
			switch {
			case s.store.Contains(key):
				rs.Status, rs.Source = "hit", "store"
			default:
				rs.Status = s.enqueue(key, req)
				switch rs.Status {
				case "enqueued":
					transferred++
					status = http.StatusAccepted
				case "running":
					status = http.StatusAccepted
				case "failed":
					rs.Error = &api.Error{Code: api.CodeDraining, Message: "server is draining; no new work accepted"}
				}
			}
		}
		out.Runs[i] = rs
	}
	s.release(len(reqs) - transferred)
	respond(w, status, out)
}

// enqueue starts req on the scheduler unless that key is already in
// flight; it reports the resulting status. An "enqueued" return transfers
// one admitted queue slot to the background goroutine.
func (s *Server) enqueue(key string, req harness.Request) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight[key] {
		return "running"
	}
	if s.draining || s.baseCtx.Err() != nil {
		return "failed" // draining: no new work
	}
	s.inflight[key] = true
	s.metrics.Counter(obs.MetricServeQueueDepth).Set(int64(len(s.inflight)))
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.release(1)
		// Errors are not lost: the failed key stays absent from the store
		// and a ?wait=1 resubmission reports the error inline.
		s.resolve(s.baseCtx, req)
		s.mu.Lock()
		delete(s.inflight, key)
		s.metrics.Counter(obs.MetricServeQueueDepth).Set(int64(len(s.inflight)))
		s.mu.Unlock()
	}()
	return "enqueued"
}

// handleRun is GET /v1/runs/{key}: the stored entry verbatim (200), a
// progress report while the run is in flight (202), or a 404 envelope.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.metrics.Counter(obs.MetricServeRequests).Inc()
	key := r.PathValue("key")
	_, raw, err := s.store.Get(key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, api.Errorf(api.CodeInternal, "%v", err))
		return
	}
	if raw != nil {
		// The raw object file bytes, verbatim: every hit of a key serves
		// the identical body.
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(api.Header, api.Schema)
		w.Header().Set(api.StoreHeader, "hit")
		w.WriteHeader(http.StatusOK)
		w.Write(raw)
		return
	}
	s.mu.Lock()
	running := s.inflight[key]
	queue := len(s.inflight)
	s.mu.Unlock()
	w.Header().Set(api.StoreHeader, "miss")
	if running {
		respond(w, http.StatusAccepted, map[string]any{
			"schema": api.Schema, "key": key, "status": "running", "queueDepth": queue,
		})
		return
	}
	writeError(w, http.StatusNotFound,
		api.Errorf(api.CodeNotFound, "no run with key %s (POST /v1/runs to submit)", key))
}

// handleFigure is GET /v1/figures/{name}: the named figure's rows,
// assembled by the scheduler — which means from the store when it is
// warm, so regenerating a figure over cached runs simulates nothing.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	s.metrics.Counter(obs.MetricServeRequests).Inc()
	name := r.PathValue("name")
	build, ok := s.figureBuilders()[name]
	if !ok {
		writeError(w, http.StatusNotFound,
			api.Errorf(api.CodeNotFound, "unknown figure %q (want one of %v)", name, s.figureNames()))
		return
	}
	rows, err := build(r.Context())
	if r.Context().Err() != nil {
		writeError(w, http.StatusServiceUnavailable, api.Errorf(api.CodeUnavailable, "%v", r.Context().Err()))
		return
	}
	resp := map[string]any{"schema": api.Schema, "figure": name, "rows": rows}
	if err != nil {
		// Degraded figures still serve their surviving rows, same contract
		// as hintm-bench.
		resp["error"] = err.Error()
	}
	respond(w, http.StatusOK, resp)
}

// figureBuilders maps API figure names onto harness builders.
func (s *Server) figureBuilders() map[string]func(context.Context) (any, error) {
	return map[string]func(context.Context) (any, error){
		"fig1": func(ctx context.Context) (any, error) { return s.runner.Fig1(ctx) },
		"fig4": func(ctx context.Context) (any, error) { return s.runner.Fig4(ctx) },
		"fig5": func(ctx context.Context) (any, error) { return s.runner.Fig5(ctx) },
		"fig6": func(ctx context.Context) (any, error) { return s.runner.Fig6(ctx) },
		"fig7": func(ctx context.Context) (any, error) { return s.runner.Fig7(ctx) },
		"fig8": func(ctx context.Context) (any, error) { return s.runner.Fig8(ctx) },
	}
}

func (s *Server) figureNames() []string {
	names := make([]string, 0, 6)
	for name := range s.figureBuilders() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// handleHealthz is the liveness/readiness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	queue := len(s.inflight)
	active := s.active
	s.mu.Unlock()
	respond(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"schema":        store.Schema,
		"api":           api.Schema,
		"storeEntries":  s.store.Len(),
		"queueDepth":    queue,
		"active":        active,
		"queueLimit":    s.queueLimit,
		"uptimeSeconds": int64(time.Since(s.started).Seconds()),
		"buildInfo":     buildInfo(),
	})
}

// buildInfo reports what binary is serving: the Go toolchain version and,
// when the binary was built inside a git checkout, the VCS revision stamped
// by the toolchain.
func buildInfo() map[string]string {
	info := map[string]string{"goVersion": runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				info["vcsRevision"] = kv.Value
			case "vcs.time":
				info["vcsTime"] = kv.Value
			case "vcs.modified":
				info["vcsModified"] = kv.Value
			}
		}
	}
	return info
}

// handleMetrics renders the shared registry (store hit/miss/put counters,
// scheduler run counts, the request latency histogram, queue depth) in
// Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.metrics.Counter(obs.MetricServeQueueDepth).Set(int64(len(s.inflight)))
	s.metrics.Counter(obs.MetricServeActive).Set(int64(s.active))
	s.mu.Unlock()
	s.metrics.Counter(obs.MetricStoreEntries).Set(int64(s.store.Len()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Header().Set(api.Header, api.Schema)
	s.metrics.Render(w)
}

// ---- response plumbing -------------------------------------------------

// checkVersion rejects requests pinning an API version this server does
// not speak. Absent header = current version.
func (s *Server) checkVersion(w http.ResponseWriter, r *http.Request) bool {
	if v := r.Header.Get(api.Header); v != "" && v != api.Schema {
		writeError(w, http.StatusBadRequest,
			api.Errorf(api.CodeBadRequest, "unsupported %s %q (this server speaks %s)", api.Header, v, api.Schema))
		return false
	}
	return true
}

// throttle answers an over-limit submission: 429, a Retry-After derived
// from actual queue pressure, and a typed envelope naming the limit.
func (s *Server) throttle(w http.ResponseWriter, n int) {
	load := s.load()
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(load, n, s.queueLimit)))
	e := api.Errorf(api.CodeOverloaded, "work queue full")
	e.Detail = fmt.Sprintf("load %d + submitted %d exceeds queue limit %d; retry after Retry-After seconds",
		load, n, s.queueLimit)
	writeError(w, http.StatusTooManyRequests, e)
}

// retryAfterSeconds scales the retry hint with queue pressure: roughly 10
// seconds per full queue's worth of excess, clamped to [1, 30]. A barely
// over-limit submission is told to come right back; one that would double
// the queue is told to wait.
func retryAfterSeconds(load, submitted, limit int) int {
	if limit <= 0 {
		return 1
	}
	excess := load + submitted - limit
	if excess < 0 {
		excess = 0
	}
	secs := (excess*10 + limit - 1) / limit
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// respond writes a v2 success body with the version header.
func respond(w http.ResponseWriter, status int, v any) {
	w.Header().Set(api.Header, api.Schema)
	writeJSON(w, status, v)
}

// writeError writes the typed v2 error envelope.
func writeError(w http.ResponseWriter, status int, e *api.Error) {
	respond(w, status, api.ErrorEnvelope{Schema: api.Schema, Error: e})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
