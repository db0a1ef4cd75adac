// GET /v1/runs: list stored results with pagination and filters.
//
// Before this endpoint, store keys were write-only from a client's view —
// you could dereference a key you already held, but not discover what a
// server had computed. The listing is backed by the store index (no object
// reads), filters on the index's request summaries (?workload=, ?htm=),
// and paginates by store sequence number: `after` is the previous page's
// nextAfter, and because seqs are stable across reads a crawl sees every
// entry exactly once even while new results land.
package server

import (
	"net/http"
	"strconv"

	"hintm/internal/api"
	"hintm/internal/obs"
	"hintm/internal/sim"
	"hintm/internal/store"
	"hintm/internal/workloads"
)

const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.metrics.Counter(obs.MetricServeRequests).Inc()
	if !s.checkVersion(w, r) {
		return
	}
	q := r.URL.Query()
	var f store.Filter
	if wl := q.Get("workload"); wl != "" {
		if _, err := workloads.ByName(wl); err != nil {
			writeError(w, http.StatusBadRequest, api.Errorf(api.CodeBadRequest, "bad workload filter: %v", err))
			return
		}
		f.Workload = wl
	}
	if h := q.Get("htm"); h != "" {
		kind, err := sim.ParseHTMKind(h)
		if err != nil {
			writeError(w, http.StatusBadRequest, api.Errorf(api.CodeBadRequest, "bad htm filter: %v", err))
			return
		}
		f.HTM = kind.String()
	}
	limit := defaultListLimit
	if lv := q.Get("limit"); lv != "" {
		n, err := strconv.Atoi(lv)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest,
				api.Errorf(api.CodeBadRequest, "bad limit %q: want a positive integer", lv))
			return
		}
		limit = min(n, maxListLimit)
	}
	var after uint64
	if av := q.Get("after"); av != "" {
		n, err := strconv.ParseUint(av, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest,
				api.Errorf(api.CodeBadRequest, "bad after cursor %q: want a sequence number", av))
			return
		}
		after = n
	}
	items, nextAfter := s.store.Select(f, after, limit)
	resp := api.ListResponse{Schema: api.Schema, Runs: make([]api.ListItem, len(items)), NextAfter: nextAfter}
	for i, it := range items {
		resp.Runs[i] = api.ListItem{
			Key:       it.Key,
			Seq:       it.Seq,
			Size:      it.Size,
			Workload:  it.Workload,
			Scale:     it.Scale,
			HTM:       it.HTM,
			Hints:     it.Hints,
			ResultURL: "/v1/runs/" + it.Key,
		}
	}
	respond(w, http.StatusOK, resp)
}
