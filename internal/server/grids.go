// POST /v1/grids: batched grid submission with streamed per-run progress.
//
// A grid is the natural unit of work for this service — the paper's
// figures are sweeps of hundreds of (workload, scale, htm, hints, smt)
// points — so the API accepts them in one request and answers with an
// NDJSON event stream: one "accepted" line, one "run" line per submitted
// spec, one final "done" line with totals. Lines flush as they are
// produced, so a client watching the stream sees progress in real time
// on a cold grid and an instant answer on a warm one.
//
// Determinism: run events are emitted in submission-index order — a
// completion for index i buffers until every index below i has been
// reported (a ratchet). Runs still *execute* concurrently in whatever
// order the scheduler picks; only the reporting is ordered. Given equal
// store state, two submissions of the same grid therefore produce
// byte-identical streams, which the stream-determinism test asserts
// under -race.
package server

import (
	"encoding/json"
	"net/http"

	"hintm/internal/api"
	"hintm/internal/harness"
	"hintm/internal/obs"
)

func (s *Server) handleGrids(w http.ResponseWriter, r *http.Request) {
	s.metrics.Counter(obs.MetricServeRequests).Inc()
	if !s.checkVersion(w, r) {
		return
	}
	var body api.GridRequest
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, api.Errorf(api.CodeBadRequest, "bad request body: %v", err))
		return
	}
	if e := checkSchema(body.Schema); e != nil {
		writeError(w, http.StatusBadRequest, e)
		return
	}
	if len(body.Requests) == 0 {
		writeError(w, http.StatusBadRequest, api.Errorf(api.CodeBadRequest, "empty grid: requests is required"))
		return
	}
	reqs, perr := s.parseAll(body.Requests)
	if perr == nil {
		perr = s.checkSize(len(reqs))
	}
	if perr != nil {
		writeError(w, http.StatusBadRequest, perr)
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable,
			api.Errorf(api.CodeDraining, "server is draining; no new work accepted"))
		return
	}
	if !s.admit(len(reqs)) {
		s.throttle(w, len(reqs))
		return
	}

	w.Header().Set(api.Header, api.Schema)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w) // one compact JSON value per line
	flusher, _ := w.(http.Flusher)
	emit := func(ev api.GridEvent) {
		ev.Schema = api.Schema
		enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}
	emit(api.GridEvent{Event: "accepted", Total: len(reqs)})

	// Fan out: every run resolves concurrently (the scheduler's worker
	// pool bounds actual simulation parallelism, and single-flight dedup
	// collapses duplicate specs within the grid).
	results := make(chan api.GridRun)
	for i, req := range reqs {
		go func(i int, req harness.Request) {
			rs := s.resolve(r.Context(), req)
			s.release(1)
			results <- api.GridRun{Index: i, RunStatus: rs}
		}(i, req)
	}

	// Ratchet: report in index order regardless of completion order.
	pending := make(map[int]api.GridRun, len(reqs))
	next := 0
	summary := api.GridSummary{Total: len(reqs)}
	for received := 0; received < len(reqs); received++ {
		gr := <-results
		pending[gr.Index] = gr
		for {
			g, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			switch {
			case g.Status == "hit":
				summary.Hits++
			case g.Status == "done":
				summary.Simulated++
			default:
				summary.Failed++
			}
			run := g
			emit(api.GridEvent{Event: "run", Run: &run})
		}
	}
	emit(api.GridEvent{Event: "done", Summary: &summary})
}
