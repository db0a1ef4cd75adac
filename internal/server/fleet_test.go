package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hintm/internal/api"
	"hintm/internal/harness"
	"hintm/internal/obs"
	"hintm/internal/store"
)

// newFleet spins up n servers with separate stores that share one peer
// list, so they form a consistent-hash fleet. The handler indirection
// breaks the chicken-and-egg between knowing every node's URL and
// constructing the servers — and lets a test swap handlers[i] to simulate
// node i restarting behind a stable address.
func newFleet(t *testing.T, n int) (servers []*Server, urls []string, metrics []*obs.Metrics, handlers []http.Handler) {
	t.Helper()
	handlers = make([]http.Handler, n)
	for i := 0; i < n; i++ {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handlers[i].ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	for i := 0; i < n; i++ {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opts := harness.QuickOptions()
		opts.Filter = []string{"labyrinth"}
		m := obs.NewMetrics()
		s := New(Config{
			Store: st, Options: opts, Metrics: m,
			Fleet: FleetConfig{Self: urls[i], Peers: urls, Replicas: 2},
		})
		handlers[i] = s.Handler()
		servers = append(servers, s)
		metrics = append(metrics, m)
	}
	t.Cleanup(func() { drainAll(servers) })
	return servers, urls, metrics, handlers
}

func fleetSimRuns(metrics []*obs.Metrics) (total int64) {
	for _, m := range metrics {
		total += m.Value("runner_sim_runs_total")
	}
	return total
}

// quiesceFleet waits for every node's async replication queue to drain, so
// a warm-phase assertion runs against settled stores.
func quiesceFleet(t *testing.T, servers []*Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, s := range servers {
		if s.repl == nil {
			continue
		}
		if err := s.repl.quiesce(ctx); err != nil {
			t.Fatalf("node %d replication never quiesced: %v", i, err)
		}
	}
}

// TestFleetColdOnAWarmOnB is the sharded fleet's acceptance test: a run
// simulated on node A is a warm hit on node B via peer fetch, the served
// bytes are identical on every node, and the warm path never simulates
// anywhere in the fleet.
func TestFleetColdOnAWarmOnB(t *testing.T) {
	servers, urls, metrics, _ := newFleet(t, 3)

	code, out := postRuns(t, wrapURL(urls[0]), "?wait=1", labyrinthSmall)
	if code != http.StatusOK || out.Runs[0].Status != "done" || out.Runs[0].Source != "sim" {
		t.Fatalf("cold submit to A: code=%d run=%+v", code, out.Runs[0])
	}
	key := out.Runs[0].Key
	// Replication is async now: let the forward land before the warm phase.
	quiesceFleet(t, servers)
	coldSims := fleetSimRuns(metrics)
	if coldSims == 0 {
		t.Fatal("cold submit simulated nothing")
	}

	// The same spec submitted to B answers warm — from B's store (if the
	// forward already landed there) or via peer fetch — without any node
	// simulating again.
	code, out = postRuns(t, wrapURL(urls[1]), "?wait=1", labyrinthSmall)
	if code != http.StatusOK || out.Runs[0].Status != "hit" {
		t.Fatalf("warm submit to B: code=%d run=%+v, want hit", code, out.Runs[0])
	}
	if out.Runs[0].Source != "store" && out.Runs[0].Source != "peer" {
		t.Fatalf("warm submit source = %q", out.Runs[0].Source)
	}
	if got := fleetSimRuns(metrics); got != coldSims {
		t.Fatalf("warm submit ran %d extra simulations across the fleet", got-coldSims)
	}

	// Every node serves byte-identical object bytes for the key.
	var bodies [][]byte
	for i, u := range urls {
		resp, err := http.Get(u + "/v1/runs/" + key)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := readAll(resp.Body, maxReplicaBytes)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d GET: %d", i, resp.StatusCode)
		}
		src := resp.Header.Get(api.StoreHeader)
		if src != "hit" && src != "peer" {
			t.Fatalf("node %d GET %s = %q", i, api.StoreHeader, src)
		}
		bodies = append(bodies, body)
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Errorf("node %d serves different bytes than node 0", i)
		}
	}
	if got := fleetSimRuns(metrics); got != coldSims {
		t.Errorf("GETs ran %d extra simulations", got-coldSims)
	}
}

// wrapURL adapts a raw base URL to the postRuns helper's httptest shape.
func wrapURL(u string) *httptest.Server {
	return &httptest.Server{URL: u}
}

// postGrid submits a grid and returns the HTTP status, raw NDJSON body,
// and parsed events.
func postGrid(t *testing.T, url, body string) (int, []byte, []api.GridEvent) {
	t.Helper()
	resp, err := http.Post(url+"/v1/grids", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := readAll(resp.Body, maxReplicaBytes)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, raw, nil
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("grid Content-Type = %q", ct)
	}
	var events []api.GridEvent
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev api.GridEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	return resp.StatusCode, raw, events
}

const smallGrid = `{"schema":"hintm-api/v2","requests":[
	{"workload":"labyrinth","scale":"small","htm":"p8","hints":"none"},
	{"workload":"labyrinth","scale":"small","htm":"p8","hints":"st"},
	{"workload":"labyrinth","scale":"small","htm":"p8","hints":"dyn"},
	{"workload":"labyrinth","scale":"small","htm":"p8","hints":"full"}
]}`

// TestGridStreamShapeAndDeterminism runs a grid cold, then twice warm:
// the stream is accepted → run×N (in index order) → done, the warm
// summary shows zero simulations, and the two warm streams are
// byte-identical.
func TestGridStreamShapeAndDeterminism(t *testing.T) {
	_, ts, m := newTestServer(t, t.TempDir())

	code, _, cold := postGrid(t, ts.URL, smallGrid)
	if code != http.StatusOK {
		t.Fatalf("cold grid: %d", code)
	}
	checkGridEvents(t, cold, 4)
	if sum := cold[len(cold)-1].Summary; sum.Simulated != 4 || sum.Hits != 0 || sum.Failed != 0 {
		t.Fatalf("cold summary: %+v", sum)
	}
	coldSims := m.Value("runner_sim_runs_total")
	if coldSims != 4 {
		t.Fatalf("cold grid simulated %d runs, want 4", coldSims)
	}

	_, warm1, ev1 := postGrid(t, ts.URL, smallGrid)
	_, warm2, ev2 := postGrid(t, ts.URL, smallGrid)
	checkGridEvents(t, ev1, 4)
	checkGridEvents(t, ev2, 4)
	if sum := ev1[len(ev1)-1].Summary; sum.Hits != 4 || sum.Simulated != 0 {
		t.Fatalf("warm summary: %+v", sum)
	}
	if !bytes.Equal(warm1, warm2) {
		t.Errorf("warm grid streams differ:\n%s\nvs\n%s", warm1, warm2)
	}
	if got := m.Value("runner_sim_runs_total"); got != coldSims {
		t.Errorf("warm grids ran %d extra simulations", got-coldSims)
	}
}

// checkGridEvents asserts the accepted/run.../done shape with run events
// in submission-index order.
func checkGridEvents(t *testing.T, events []api.GridEvent, n int) {
	t.Helper()
	if len(events) != n+2 {
		t.Fatalf("got %d events, want %d", len(events), n+2)
	}
	if events[0].Event != "accepted" || events[0].Total != n {
		t.Fatalf("first event: %+v", events[0])
	}
	for i := 1; i <= n; i++ {
		ev := events[i]
		if ev.Event != "run" || ev.Run == nil || ev.Run.Index != i-1 {
			t.Fatalf("event %d out of order: %+v", i, ev)
		}
		if ev.Schema != api.Schema {
			t.Fatalf("event %d schema %q", i, ev.Schema)
		}
	}
	last := events[n+1]
	if last.Event != "done" || last.Summary == nil || last.Summary.Total != n {
		t.Fatalf("last event: %+v", last)
	}
}

// TestFleetGridWarmViaPeers submits a grid cold to node A, then the same
// grid to node B: B answers every cell warm (local store or peer fetch)
// and no node simulates anything new.
func TestFleetGridWarmViaPeers(t *testing.T) {
	servers, urls, metrics, _ := newFleet(t, 3)

	code, _, cold := postGrid(t, urls[0], smallGrid)
	if code != http.StatusOK {
		t.Fatalf("cold grid: %d", code)
	}
	checkGridEvents(t, cold, 4)
	quiesceFleet(t, servers)
	coldSims := fleetSimRuns(metrics)

	code, _, warm := postGrid(t, urls[1], smallGrid)
	if code != http.StatusOK {
		t.Fatalf("warm grid on B: %d", code)
	}
	checkGridEvents(t, warm, 4)
	sum := warm[len(warm)-1].Summary
	if sum.Simulated != 0 || sum.Failed != 0 || sum.Hits+sum.PeerHits != 4 {
		t.Fatalf("warm-on-B summary: %+v", sum)
	}
	if got := fleetSimRuns(metrics); got != coldSims {
		t.Errorf("warm grid on B ran %d extra simulations (SimRuns delta must be zero)", got-coldSims)
	}
}

// TestBackpressure429 fills the bounded queue and checks that runs and
// grids are refused with 429 + Retry-After + a typed overloaded envelope,
// then admitted again once the queue drains.
func TestBackpressure429(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := harness.QuickOptions()
	opts.Filter = []string{"labyrinth"}
	s := New(Config{Store: st, Options: opts, Metrics: obs.NewMetrics(), QueueLimit: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Fill the queue deterministically: two fake in-flight runs.
	s.mu.Lock()
	s.inflight["fake-1"], s.inflight["fake-2"] = true, true
	s.mu.Unlock()

	for _, submit := range []struct {
		path, body string
	}{
		{"/v1/runs?wait=1", labyrinthSmall},
		{"/v1/runs", labyrinthSmall},
		{"/v1/grids", smallGrid},
	} {
		resp, err := http.Post(ts.URL+submit.path, "application/json", strings.NewReader(submit.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := readAll(resp.Body, 1<<20)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s with full queue: %d, want 429", submit.path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s: no Retry-After header", submit.path)
		}
		var env api.ErrorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil || env.Error.Code != api.CodeOverloaded {
			t.Errorf("%s: envelope %s", submit.path, raw)
		}
		if env.Schema != api.Schema {
			t.Errorf("%s: envelope schema %q", submit.path, env.Schema)
		}
	}
	if got := s.metrics.Value("serve_throttled_total"); got != 3 {
		t.Errorf("serve_throttled_total = %d, want 3", got)
	}

	// Drain the fake queue: the same submission is admitted.
	s.mu.Lock()
	delete(s.inflight, "fake-1")
	delete(s.inflight, "fake-2")
	s.mu.Unlock()
	code, out := postRuns(t, ts, "?wait=1", labyrinthSmall)
	if code != http.StatusOK || out.Runs[0].Status != "done" {
		t.Fatalf("post-drain submit: %d %+v", code, out)
	}
	if s.load() != 0 {
		t.Errorf("admitted slots leaked: load = %d", s.load())
	}
}

// TestAdmitRelease pins the slot bookkeeping under mixed outcomes.
func TestAdmitRelease(t *testing.T) {
	s, ts, _ := newTestServer(t, t.TempDir())
	// A grid with duplicates, waited: all slots must come back.
	grid := fmt.Sprintf(`{"requests":[%s,%s]}`, labyrinthSmall, labyrinthSmall)
	if code, _ := postRuns(t, ts, "?wait=1", grid); code != http.StatusOK {
		t.Fatalf("grid: %d", code)
	}
	if s.load() != 0 {
		t.Errorf("slots leaked after waited grid: load = %d", s.load())
	}
}
