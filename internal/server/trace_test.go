package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hintm/internal/harness"
	"hintm/internal/obs"
	"hintm/internal/store"
)

// memTransport routes peer HTTP calls to in-process handlers by fixed fake
// URL ("http://node0", ...). Unlike httptest servers — whose random ports
// would give two fleets different node names and therefore different ring
// placements — fixed URLs make two independently built fleets byte-identical
// in placement, which the trace determinism test requires.
type memTransport struct {
	handlers map[string]http.Handler
}

func (mt *memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := mt.handlers["http://"+req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("memTransport: unknown node %q", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// newMemFleet builds an n-node fleet on fixed in-process URLs. The returned
// client routes any request (to any node) through the shared transport.
func newMemFleet(t *testing.T, n int) (servers []*Server, urls []string, client *http.Client) {
	t.Helper()
	mt := &memTransport{handlers: make(map[string]http.Handler)}
	client = &http.Client{Transport: mt}
	for i := 0; i < n; i++ {
		urls = append(urls, fmt.Sprintf("http://node%d", i))
	}
	for i := 0; i < n; i++ {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opts := harness.QuickOptions()
		opts.Filter = []string{"labyrinth"}
		s := New(Config{
			Store: st, Options: opts, Metrics: obs.NewMetrics(),
			Fleet: FleetConfig{Self: urls[i], Peers: urls, Replicas: 2, Client: client},
		})
		mt.handlers[urls[i]] = s.Handler()
		servers = append(servers, s)
	}
	t.Cleanup(func() { drainAll(servers) })
	return servers, urls, client
}

// memPost submits one run through the in-process transport.
func memPost(t *testing.T, client *http.Client, url, body string) (int, []byte) {
	t.Helper()
	resp, err := client.Post(url+"/v1/runs?wait=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := readAll(resp.Body, maxReplicaBytes)
	return resp.StatusCode, raw
}

// memGet fetches a URL through the in-process transport.
func memGet(t *testing.T, client *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := readAll(resp.Body, maxReplicaBytes)
	return resp.StatusCode, raw
}

func decodeTrace(t *testing.T, raw []byte) obs.TraceDoc {
	t.Helper()
	var doc obs.TraceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace does not decode: %v\n%s", err, raw)
	}
	if doc.Schema != obs.TraceSchema {
		t.Fatalf("trace schema = %q", doc.Schema)
	}
	return doc
}

func spanKinds(spans []obs.Span) map[string]int {
	kinds := map[string]int{}
	for _, s := range spans {
		kinds[s.Kind]++
	}
	return kinds
}

// TestFleetTraceColdWarmStructure is the tentpole's end-to-end assertion:
// a cold cross-node request's assembled trace shows every phase (including
// the remote peer.serve and repl.recv halves), and a warm request's trace
// has no simulate span.
func TestFleetTraceColdWarmStructure(t *testing.T) {
	servers, urls, client := newMemFleet(t, 3)

	code, raw := memPost(t, client, urls[0], labyrinthSmall)
	if code != http.StatusOK {
		t.Fatalf("cold submit: %d\n%s", code, raw)
	}
	var out struct {
		Runs []struct{ Key, Status string } `json:"runs"`
	}
	json.Unmarshal(raw, &out)
	key := out.Runs[0].Key
	quiesceFleet(t, servers)

	code, raw = memGet(t, client, urls[0]+"/v1/traces/"+key)
	if code != http.StatusOK {
		t.Fatalf("cold trace: %d\n%s", code, raw)
	}
	cold := decodeTrace(t, raw)
	kinds := spanKinds(cold.Spans)
	for _, want := range []string{obs.SpanRequest, obs.SpanAdmission, obs.SpanStoreGet, obs.SpanSimulate, obs.SpanReplEnqueue, obs.SpanReplPush, obs.SpanReplRecv} {
		if kinds[want] == 0 {
			t.Errorf("cold trace missing %s span (kinds %v)", want, kinds)
		}
	}
	if kinds[obs.SpanSimulate] != 1 {
		t.Errorf("cold trace has %d simulate spans, want 1", kinds[obs.SpanSimulate])
	}
	// The repl.recv spans are the remote halves: hop 1, on a node that is
	// not the origin, linked to a repl.push parent on the origin node.
	remote := 0
	for _, s := range cold.Spans {
		if s.Kind == obs.SpanReplRecv {
			remote++
			if s.Hop != 1 || s.Node == urls[0] || s.ParentNode != urls[0] {
				t.Errorf("repl.recv linkage wrong: %+v", s)
			}
		}
	}
	if remote == 0 {
		t.Error("no remote spans assembled")
	}

	// Warm on a node that does not hold the key locally: the peer-fetch path
	// produces a peer.fetch/peer.serve pair and — crucially — no simulate.
	warmNode := -1
	for i, s := range servers {
		if !s.store.Contains(key) {
			warmNode = i
			break
		}
	}
	if warmNode >= 0 {
		code, raw = memPost(t, client, urls[warmNode], labyrinthSmall)
		if code != http.StatusOK {
			t.Fatalf("warm submit: %d\n%s", code, raw)
		}
		code, raw = memGet(t, client, urls[warmNode]+"/v1/traces/"+key)
		if code != http.StatusOK {
			t.Fatalf("warm trace: %d\n%s", code, raw)
		}
		warm := decodeTrace(t, raw)
		wkinds := spanKinds(warm.Spans)
		if wkinds[obs.SpanSimulate] != 0 {
			t.Errorf("warm trace simulated: kinds %v", wkinds)
		}
		if wkinds[obs.SpanPeerFetch] == 0 || wkinds[obs.SpanPeerServe] == 0 {
			t.Errorf("warm peer-fetch trace missing fetch/serve pair: kinds %v", wkinds)
		}
		if warm.Root == cold.Root && warmNode == 0 {
			t.Errorf("warm run did not root a new execution: %s", warm.Root)
		}
	}

	// A warm store hit on the origin node is its own (later) root execution
	// with just request/admission/store.get.
	code, raw = memPost(t, client, urls[0], labyrinthSmall)
	if code != http.StatusOK {
		t.Fatalf("warm resubmit: %d", code)
	}
	code, raw = memGet(t, client, urls[0]+"/v1/traces/"+key)
	if code != http.StatusOK {
		t.Fatalf("warm trace on origin: %d", code)
	}
	hit := decodeTrace(t, raw)
	if hit.Root == cold.Root {
		t.Errorf("resubmission reused root %s", hit.Root)
	}
	hkinds := spanKinds(hit.Spans)
	if hkinds[obs.SpanSimulate] != 0 || hkinds[obs.SpanStoreGet] != 1 {
		t.Errorf("warm-hit trace kinds: %v", hkinds)
	}
	for _, s := range hit.Spans {
		if s.Kind == obs.SpanStoreGet && s.Detail != "hit" {
			t.Errorf("warm store.get detail = %q", s.Detail)
		}
	}
}

// TestFleetTraceDeterministic builds two independent fleets on identical
// node URLs, runs the identical seeded request through each, and requires
// the canonical assembled traces to be byte-identical — the acceptance
// criterion for deterministic trace identity.
func TestFleetTraceDeterministic(t *testing.T) {
	var docs [][]byte
	for fleet := 0; fleet < 2; fleet++ {
		servers, urls, client := newMemFleet(t, 3)
		code, raw := memPost(t, client, urls[0], labyrinthSmall)
		if code != http.StatusOK {
			t.Fatalf("fleet %d submit: %d\n%s", fleet, code, raw)
		}
		var out struct {
			Runs []struct{ Key string } `json:"runs"`
		}
		json.Unmarshal(raw, &out)
		quiesceFleet(t, servers)
		code, doc := memGet(t, client, urls[0]+"/v1/traces/"+out.Runs[0].Key+"?canon=1")
		if code != http.StatusOK {
			t.Fatalf("fleet %d trace: %d\n%s", fleet, code, doc)
		}
		docs = append(docs, doc)
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Errorf("canonical traces differ across identical fleets:\n%s\nvs\n%s", docs[0], docs[1])
	}
}

// TestTraceBreakdownCoverage runs one cold request and requires the
// origin-node spans to attribute (nearly) all of the root's wall time to
// named phases — the report's "where did the time go" guarantee.
func TestTraceBreakdownCoverage(t *testing.T) {
	servers, urls, client := newMemFleet(t, 3)
	code, raw := memPost(t, client, urls[0], labyrinthSmall)
	if code != http.StatusOK {
		t.Fatalf("submit: %d", code)
	}
	var out struct {
		Runs []struct{ Key string } `json:"runs"`
	}
	json.Unmarshal(raw, &out)
	quiesceFleet(t, servers)
	_, doc := memGet(t, client, urls[0]+"/v1/traces/"+out.Runs[0].Key)
	b := obs.Breakdown(decodeTrace(t, doc).Spans)
	if b.TotalUs <= 0 {
		t.Fatalf("no root duration: %+v", b)
	}
	if cov := b.Coverage(); cov < 0.98 {
		t.Errorf("coverage = %.4f, want >= 0.98 (phases %v)", cov, b.Phases)
	}
	if b.Phases["sim"] == 0 || b.Phases["store"] == 0 {
		t.Errorf("phase attribution empty: %v", b.Phases)
	}
}

// TestTraceDisabledAndUnknown pins the degraded paths: tracing disabled
// (negative capacity) 404s, an untraced key 404s, and a ?local shard query
// for an unknown root returns an empty span list.
func TestTraceDisabledAndUnknown(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := harness.QuickOptions()
	opts.Filter = []string{"labyrinth"}
	s := New(Config{Store: st, Options: opts, Metrics: obs.NewMetrics(), TraceCapacity: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if s.traces != nil {
		t.Fatal("negative TraceCapacity did not disable tracing")
	}
	resp, err := http.Get(ts.URL + "/v1/traces/" + strings.Repeat("ab", 32))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled tracing: %d, want 404", resp.StatusCode)
	}

	_, ts2, _ := newTestServer(t, t.TempDir())
	resp, err = http.Get(ts2.URL + "/v1/traces/" + strings.Repeat("ab", 32))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown key: %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts2.URL + "/v1/traces/" + strings.Repeat("ab", 32) + "?local=1&root=x%231")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := readAll(resp.Body, 1<<20)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("local shard for unknown root: %d", resp.StatusCode)
	}
	var doc obs.TraceDoc
	if err := json.Unmarshal(raw, &doc); err != nil || doc.Spans == nil || len(doc.Spans) != 0 {
		t.Errorf("unknown-root shard: %s", raw)
	}
}

// TestMetricsOnlyDeclaredNames scrapes a busy server's /metrics and asserts
// every family is centrally declared and the exposition parses — the
// metric-name hygiene gate.
func TestMetricsOnlyDeclaredNames(t *testing.T) {
	servers, urls, client := newMemFleet(t, 3)
	memPost(t, client, urls[0], labyrinthSmall)
	quiesceFleet(t, servers)
	memPost(t, client, urls[1], labyrinthSmall)

	for i, u := range urls {
		code, raw := memGet(t, client, u+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("node %d /metrics: %d", i, code)
		}
		fams, err := obs.ParseText(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("node %d /metrics does not parse: %v\n%s", i, err, raw)
		}
		for name, fam := range fams {
			def, ok := obs.Lookup(name)
			if !ok {
				t.Errorf("node %d exports undeclared metric %q", i, name)
				continue
			}
			if string(def.Type) != fam.Type {
				t.Errorf("node %d metric %s: exposition type %q, declared %q", i, name, fam.Type, def.Type)
			}
		}
	}

	// The origin node observed request latencies server-side: the labeled
	// histogram must be present and internally consistent.
	_, raw := memGet(t, client, urls[0]+"/metrics")
	fams, _ := obs.ParseText(bytes.NewReader(raw))
	reqHist := fams[obs.MetricServeRequestSec]
	if reqHist == nil {
		t.Fatal("serve_request_seconds missing after traffic")
	}
	hs, err := reqHist.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if hs.Count == 0 {
		t.Error("serve_request_seconds recorded nothing")
	}
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
