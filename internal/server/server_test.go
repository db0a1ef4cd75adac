package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"hintm/internal/api"
	"hintm/internal/harness"
	"hintm/internal/obs"
	"hintm/internal/store"
)

// newTestServer builds a server over a fresh store with quick options.
func newTestServer(t *testing.T, dir string) (*Server, *httptest.Server, *obs.Metrics) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := harness.QuickOptions()
	opts.Filter = []string{"labyrinth"}
	m := obs.NewMetrics()
	s := New(Config{Store: st, Options: opts, Metrics: m})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, m
}

func postRuns(t *testing.T, ts *httptest.Server, query, body string) (int, api.RunsResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out api.RunsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

func getRun(t *testing.T, ts *httptest.Server, key string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Hintm-Store"), body
}

const labyrinthSmall = `{"workload":"labyrinth","scale":"small","htm":"p8","hints":"full"}`

// TestServeColdThenWarmByteIdentical is the PR's acceptance criterion end
// to end: the same seeded request served twice returns byte-identical JSON
// bodies, the second submission reports a store hit, and the warm path
// never invokes the simulator.
func TestServeColdThenWarmByteIdentical(t *testing.T) {
	s, ts, m := newTestServer(t, t.TempDir())

	code, out := postRuns(t, ts, "?wait=1", labyrinthSmall)
	if code != http.StatusOK || len(out.Runs) != 1 || out.Runs[0].Status != "done" {
		t.Fatalf("cold submit: code=%d out=%+v", code, out)
	}
	key := out.Runs[0].Key
	coldRuns := m.Value("runner_sim_runs_total")
	if coldRuns == 0 {
		t.Fatal("cold submit simulated nothing")
	}

	gcode, hdr, body1 := getRun(t, ts, key)
	if gcode != http.StatusOK || hdr != "hit" {
		t.Fatalf("GET after cold run: code=%d X-Hintm-Store=%q", gcode, hdr)
	}

	// Second submission: a hit, answered without touching the simulator.
	code, out = postRuns(t, ts, "?wait=1", labyrinthSmall)
	if code != http.StatusOK || out.Runs[0].Status != "hit" {
		t.Fatalf("warm submit: code=%d status=%q, want 200/hit", code, out.Runs[0].Status)
	}
	if out.Runs[0].Key != key {
		t.Errorf("warm submit key %s != cold key %s", out.Runs[0].Key, key)
	}
	if got := m.Value("runner_sim_runs_total"); got != coldRuns {
		t.Errorf("warm submit ran %d extra simulations, want 0", got-coldRuns)
	}
	if got := s.runner.SimRuns(); got != uint64(coldRuns) {
		t.Errorf("runner executed %d simulations, want %d", got, coldRuns)
	}

	gcode, hdr, body2 := getRun(t, ts, key)
	if gcode != http.StatusOK || hdr != "hit" {
		t.Fatalf("warm GET: code=%d X-Hintm-Store=%q", gcode, hdr)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("served bodies differ between cold and warm GET:\n%s\nvs\n%s", body1, body2)
	}
	if !json.Valid(body1) {
		t.Error("served body is not valid JSON")
	}
}

// TestServeWarmAcrossRestart re-opens the same store directory in a second
// server instance: the result survives the "process" and serves as a hit.
func TestServeWarmAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts1, _ := newTestServer(t, dir)
	code, out := postRuns(t, ts1, "?wait=1", labyrinthSmall)
	if code != http.StatusOK || out.Runs[0].Status != "done" {
		t.Fatalf("first instance: %d %+v", code, out)
	}
	key := out.Runs[0].Key
	_, _, body1 := getRun(t, ts1, key)
	ts1.Close()

	_, ts2, m2 := newTestServer(t, dir)
	code, out = postRuns(t, ts2, "?wait=1", labyrinthSmall)
	if code != http.StatusOK || out.Runs[0].Status != "hit" {
		t.Fatalf("restarted instance: %d %+v, want hit", code, out)
	}
	_, hdr, body2 := getRun(t, ts2, key)
	if hdr != "hit" || !bytes.Equal(body1, body2) {
		t.Errorf("restarted instance served different bytes (hdr=%q)", hdr)
	}
	if m2.Value("runner_sim_runs_total") != 0 {
		t.Error("restarted instance re-simulated a stored run")
	}
}

// TestServeAsyncEnqueue submits without wait and polls until the run
// lands in the store.
func TestServeAsyncEnqueue(t *testing.T) {
	_, ts, _ := newTestServer(t, t.TempDir())
	code, out := postRuns(t, ts, "", labyrinthSmall)
	if code != http.StatusAccepted {
		t.Fatalf("async submit code = %d, want 202", code)
	}
	st := out.Runs[0].Status
	if st != "enqueued" && st != "running" {
		t.Fatalf("async status = %q", st)
	}
	key := out.Runs[0].Key

	deadline := time.Now().Add(30 * time.Second)
	for {
		gcode, hdr, _ := getRun(t, ts, key)
		if gcode == http.StatusOK {
			if hdr != "hit" {
				t.Errorf("completed async run served with X-Hintm-Store=%q", hdr)
			}
			break
		}
		if gcode != http.StatusAccepted {
			t.Fatalf("poll returned %d", gcode)
		}
		if time.Now().After(deadline) {
			t.Fatal("async run never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Resubmitting the identical spec is now a hit even without wait.
	code, out = postRuns(t, ts, "", labyrinthSmall)
	if code != http.StatusOK || out.Runs[0].Status != "hit" {
		t.Errorf("resubmit after async completion: %d %+v", code, out)
	}
}

// TestServeGridDedup submits a grid with duplicates and distinct points.
func TestServeGridDedup(t *testing.T) {
	_, ts, m := newTestServer(t, t.TempDir())
	grid := `{"requests":[
		{"workload":"labyrinth","scale":"small","htm":"p8","hints":"none"},
		{"workload":"labyrinth","scale":"small","htm":"p8","hints":"none"},
		{"workload":"labyrinth","scale":"small","htm":"p8","hints":"full"}
	]}`
	code, out := postRuns(t, ts, "?wait=1", grid)
	if code != http.StatusOK || len(out.Runs) != 3 {
		t.Fatalf("grid submit: %d %+v", code, out)
	}
	if out.Runs[0].Key != out.Runs[1].Key || out.Runs[0].Key == out.Runs[2].Key {
		t.Errorf("grid keys wrong: %+v", out.Runs)
	}
	// Two distinct points → exactly two simulations despite three specs.
	if got := m.Value("runner_sim_runs_total"); got != 2 {
		t.Errorf("grid ran %d simulations, want 2", got)
	}
}

func TestServeBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, t.TempDir())
	for _, body := range []string{
		`{"workload":"no-such-workload"}`,
		`{"workload":"labyrinth","htm":"p99"}`,
		`{"workload":"labyrinth","scale":"tiny"}`,
		`{}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: code %d, want 400", body, resp.StatusCode)
		}
	}

	resp, _ := http.Get(ts.URL + "/v1/runs/" + strings.Repeat("00", 32))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown key: %d, want 404", resp.StatusCode)
	}
	resp, _ = http.Get(ts.URL + "/v1/figures/fig99")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown figure: %d, want 404", resp.StatusCode)
	}
}

// TestServeFigureWarm assembles a figure twice; the second assembly runs
// entirely from the store.
func TestServeFigureWarm(t *testing.T) {
	_, ts, m := newTestServer(t, t.TempDir())
	fetch := func() []byte {
		resp, err := http.Get(ts.URL + "/v1/figures/fig5")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("figure: %d", resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return body
	}
	cold := fetch()
	coldRuns := m.Value("runner_sim_runs_total")
	if coldRuns == 0 {
		t.Fatal("figure assembly simulated nothing")
	}
	var parsed struct {
		Figure string            `json:"figure"`
		Rows   []json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(cold, &parsed); err != nil || parsed.Figure != "fig5" || len(parsed.Rows) == 0 {
		t.Fatalf("figure body malformed: %s", cold)
	}

	// A second server over the same store: in-process memo is gone, only
	// the store can make this free.
	warm := fetch()
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm figure differs:\n%s\nvs\n%s", cold, warm)
	}
	if got := m.Value("runner_sim_runs_total"); got != coldRuns {
		t.Errorf("warm figure ran %d extra simulations", got-coldRuns)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts, _ := newTestServer(t, t.TempDir())
	postRuns(t, ts, "?wait=1", labyrinthSmall)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status       string `json:"status"`
		StoreEntries int    `json:"storeEntries"`
	}
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health.Status != "ok" || health.StoreEntries != 1 {
		t.Errorf("healthz: %+v", health)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"store_puts_total 1", "runner_sim_runs_total 1", "serve_requests_total", "store_entries 1"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestDrainWaitsForEnqueuedRuns submits async work and drains: the run
// must be persisted by the time Drain returns.
func TestDrainWaitsForEnqueuedRuns(t *testing.T) {
	s, ts, _ := newTestServer(t, t.TempDir())
	_, out := postRuns(t, ts, "", labyrinthSmall)
	key := out.Runs[0].Key

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !s.store.Contains(key) {
		t.Error("drained server did not persist the enqueued run")
	}
	// After drain, new enqueues are refused rather than silently dropped.
	if got := s.enqueue("deadbeef", harness.Request{Workload: "labyrinth"}); got != "failed" {
		t.Errorf("post-drain enqueue = %q, want failed", got)
	}
}

// TestRunStatusShape pins the response contract the smoke script greps.
func TestRunStatusShape(t *testing.T) {
	_, ts, _ := newTestServer(t, t.TempDir())
	_, out := postRuns(t, ts, "?wait=1", labyrinthSmall)
	rs := out.Runs[0]
	if len(rs.Key) != 64 {
		t.Errorf("key %q is not a sha256 hex digest", rs.Key)
	}
	if rs.ResultURL != "/v1/runs/"+rs.Key {
		t.Errorf("resultUrl %q", rs.ResultURL)
	}
	if want := fmt.Sprintf("labyrinth/%s/%s/%s/smt1", "small", "P8", "HinTM"); rs.Request != want {
		t.Errorf("request rendering %q, want %q", rs.Request, want)
	}
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
	raw, err := io.ReadAll(resp.Body)
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

// TestBackpressure429 fills the bounded queue and checks that runs and
// grids are refused with 429 + Retry-After + a typed overloaded envelope,
// then admitted again once the queue drains. The limit is the grid's size,
// so every submission here would fit an idle queue.
func TestBackpressure429(t *testing.T) {
	s, ts := newLimitedServer(t, 4)
	fillQueue(s, 4)

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
		raw, _ := io.ReadAll(resp.Body)
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
	clear(s.inflight)
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

// TestRetryAfterScalesWithPressure pins the 429 hint computation and its
// clamps.
func TestRetryAfterScalesWithPressure(t *testing.T) {
	cases := []struct {
		load, submitted, limit, want int
	}{
		{0, 1, 0, 1},      // unlimited queue: constant floor
		{2, 1, 16, 1},     // under the limit: come right back
		{16, 1, 16, 1},    // barely over: ceil(10/16) = 1
		{16, 16, 16, 10},  // a full queue's worth of excess: ~10s
		{16, 160, 16, 30}, // absurd burst: clamped
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.load, tc.submitted, tc.limit); got != tc.want {
			t.Errorf("retryAfterSeconds(%d,%d,%d) = %d, want %d",
				tc.load, tc.submitted, tc.limit, got, tc.want)
		}
	}

	// End to end: a throttled response's Retry-After parses as an integer
	// ≥ 1 and grows with the queue's excess. The limit is the bulk grid's
	// size, so both submissions would fit an idle queue.
	s, ts := newLimitedServer(t, 20)
	fillQueue(s, 20)
	single := throttledRetryAfter(t, ts.URL+"/v1/runs", labyrinthSmall)
	bulk := throttledRetryAfter(t, ts.URL+"/v1/grids",
		`{"requests":[`+strings.Repeat(labyrinthSmall+",", 19)+labyrinthSmall+`]}`)
	if single < 1 || bulk < 1 {
		t.Fatalf("Retry-After below 1: single=%d bulk=%d", single, bulk)
	}
	if bulk <= single {
		t.Errorf("Retry-After did not scale with pressure: single=%d bulk=%d", single, bulk)
	}
}

func throttledRetryAfter(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("%s: %d, want 429", url, resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	return secs
}

// TestHealthzBuildInfoUptime pins the /healthz additions.
func TestHealthzBuildInfoUptime(t *testing.T) {
	_, ts, _ := newTestServer(t, t.TempDir())
	time.Sleep(10 * time.Millisecond)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		UptimeSeconds *int64            `json:"uptimeSeconds"`
		BuildInfo     map[string]string `json:"buildInfo"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.UptimeSeconds == nil || *health.UptimeSeconds < 0 {
		t.Errorf("uptimeSeconds missing or negative: %v", health.UptimeSeconds)
	}
	if health.BuildInfo["goVersion"] == "" {
		t.Errorf("buildInfo.goVersion missing: %v", health.BuildInfo)
	}
}

// newLimitedServer builds a test server whose work queue holds limit runs.
func newLimitedServer(t *testing.T, limit int) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := harness.QuickOptions()
	opts.Filter = []string{"labyrinth"}
	s := New(Config{Store: st, Options: opts, Metrics: obs.NewMetrics(), QueueLimit: limit})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// fillQueue occupies n queue slots deterministically with fake in-flight
// runs.
func fillQueue(s *Server, n int) {
	s.mu.Lock()
	for i := 0; i < n; i++ {
		s.inflight[fmt.Sprintf("fake-%d", i)] = true
	}
	s.mu.Unlock()
}

// TestOversizeSubmission400: a submission of more runs than the whole
// queue holds could never be admitted, so even an idle server refuses it
// with 400 and no Retry-After rather than a 429 the client would retry
// forever.
func TestOversizeSubmission400(t *testing.T) {
	const limit = 2
	s, ts := newLimitedServer(t, limit)
	runs := `{"requests":[` + strings.Repeat(labyrinthSmall+",", limit) + labyrinthSmall + `]}`
	for _, path := range []string{"/v1/runs?wait=1", "/v1/grids"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(runs))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with %d runs on an idle server: %d, want 400", path, limit+1, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			t.Errorf("%s: Retry-After %q on a submission that can never be admitted", path, ra)
		}
		var env api.ErrorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil || env.Error.Code != api.CodeBadRequest ||
			!strings.Contains(env.Error.Message, "queue limit of 2") {
			t.Errorf("%s: envelope %s", path, raw)
		}
	}
	if got := s.metrics.Value("serve_throttled_total"); got != 0 {
		t.Errorf("serve_throttled_total = %d, want 0", got)
	}
	if s.load() != 0 {
		t.Errorf("refused submissions hold slots: load = %d", s.load())
	}
}

// TestSingleNodeRoutes pins the route table: replication PUTs and trace
// assembly are not served, and /healthz carries no fleet view.
func TestSingleNodeRoutes(t *testing.T) {
	_, ts, _ := newTestServer(t, t.TempDir())
	key := strings.Repeat("ab", 32)
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/runs/"+key, strings.NewReader("{}"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT /v1/runs/{key}: %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/traces/" + key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/traces/{key}: %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"fleet", "node", "peers"} {
		if _, ok := health[k]; ok {
			t.Errorf("/healthz carries %q: %v", k, health)
		}
	}
}

// TestMetricsOnlyDeclaredNames scrapes a server's /metrics after a cold
// and a warm submission and asserts every family is centrally declared and
// the exposition parses — the metric-name hygiene gate.
func TestMetricsOnlyDeclaredNames(t *testing.T) {
	_, ts, _ := newTestServer(t, t.TempDir())
	postRuns(t, ts, "?wait=1", labyrinthSmall)
	postRuns(t, ts, "?wait=1", labyrinthSmall)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	fams, err := obs.ParseText(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, raw)
	}
	for name, fam := range fams {
		def, ok := obs.Lookup(name)
		if !ok {
			t.Errorf("exports undeclared metric %q", name)
			continue
		}
		if string(def.Type) != fam.Type {
			t.Errorf("metric %s: exposition type %q, declared %q", name, fam.Type, def.Type)
		}
	}

	// The server observed both request latencies: the histogram must be
	// present, internally consistent, and labeled by outcome alone.
	reqHist := fams[obs.MetricServeRequestSec]
	if reqHist == nil {
		t.Fatal("serve_request_seconds missing after traffic")
	}
	hs, err := reqHist.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if hs.Count != 2 {
		t.Errorf("serve_request_seconds count = %d, want 2", hs.Count)
	}
	outcomes := map[string]bool{}
	for _, sr := range reqHist.Series {
		if _, ok := sr.Labels["node"]; ok {
			t.Errorf("series %s carries a node label: %v", sr.Name, sr.Labels)
		}
		outcomes[sr.Labels["outcome"]] = true
	}
	if !outcomes["sim"] || !outcomes["hit-store"] {
		t.Errorf("outcomes %v, want sim and hit-store", outcomes)
	}
}
