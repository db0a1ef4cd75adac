package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hintm/internal/api"
)

// TestV2ErrorEnvelope pins the typed error shape: schema field, stable
// code, and the version header, across the redesigned handlers.
func TestV2ErrorEnvelope(t *testing.T) {
	_, ts, _ := newTestServer(t, t.TempDir())
	for _, tc := range []struct {
		method, path, body string
		status             int
		code               string
	}{
		{"POST", "/v1/runs", `{"workload":"no-such"}`, 400, api.CodeBadRequest},
		{"POST", "/v1/runs", `not json`, 400, api.CodeBadRequest},
		{"POST", "/v1/runs", `{"schema":"hintm-api/v9","workload":"labyrinth"}`, 400, api.CodeBadRequest},
		{"POST", "/v1/grids", `{"requests":[]}`, 400, api.CodeBadRequest},
		{"POST", "/v1/grids", `{"requests":[{"workload":"labyrinth","htm":"p99"}]}`, 400, api.CodeBadRequest},
		{"GET", "/v1/runs/" + strings.Repeat("00", 32), "", 404, api.CodeNotFound},
		{"GET", "/v1/figures/fig99", "", 404, api.CodeNotFound},
		{"GET", "/v1/runs?workload=no-such", "", 400, api.CodeBadRequest},
		{"GET", "/v1/runs?htm=p99", "", 400, api.CodeBadRequest},
		{"GET", "/v1/runs?limit=-3", "", 400, api.CodeBadRequest},
		{"GET", "/v1/runs?after=xyz", "", 400, api.CodeBadRequest},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env api.ErrorEnvelope
		derr := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.status)
			continue
		}
		if derr != nil || env.Error == nil || env.Error.Code != tc.code || env.Schema != api.Schema {
			t.Errorf("%s %s: envelope %+v (decode err %v), want code %q", tc.method, tc.path, env, derr, tc.code)
		}
		if got := resp.Header.Get(api.Header); got != api.Schema {
			t.Errorf("%s %s: %s = %q, want %q", tc.method, tc.path, api.Header, got, api.Schema)
		}
		if env.Error != nil && env.Error.Message == "" {
			t.Errorf("%s %s: empty error message", tc.method, tc.path)
		}
	}
}

// TestUnknownVersionRejected: pinning a version the server does not speak
// is a 400, not a silent misread. That includes the retired hintm-api/v1.
func TestUnknownVersionRejected(t *testing.T) {
	_, ts, _ := newTestServer(t, t.TempDir())
	for _, version := range []string{"hintm-api/v9", "hintm-api/v1"} {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/runs", strings.NewReader(labyrinthSmall))
		req.Header.Set(api.Header, version)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("version %q: %d, want 400", version, resp.StatusCode)
		}
	}
}

// TestVersionHeaderOnSuccess: every v2 success response carries the
// version header and a schema field.
func TestVersionHeaderOnSuccess(t *testing.T) {
	_, ts, _ := newTestServer(t, t.TempDir())
	resp, err := http.Post(ts.URL+"/v1/runs?wait=1", "application/json", strings.NewReader(labyrinthSmall))
	if err != nil {
		t.Fatal(err)
	}
	var out api.RunsResponse
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if got := resp.Header.Get(api.Header); got != api.Schema {
		t.Errorf("%s = %q", api.Header, got)
	}
	if out.Schema != api.Schema {
		t.Errorf("body schema = %q", out.Schema)
	}
}

func getList(t *testing.T, ts *httptest.Server, query string) api.ListResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list %q: %d", query, resp.StatusCode)
	}
	var out api.ListResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestListPaginationAndFilters seeds a few runs and exercises GET
// /v1/runs: full listing with request-coordinate summaries, workload/htm
// filters, and seq-cursor pagination.
func TestListPaginationAndFilters(t *testing.T) {
	_, ts, _ := newTestServer(t, t.TempDir())
	code, _ := postRuns(t, ts, "?wait=1", `{"requests":[
		{"workload":"labyrinth","scale":"small","htm":"p8","hints":"none"},
		{"workload":"labyrinth","scale":"small","htm":"p8","hints":"full"},
		{"workload":"labyrinth","scale":"small","htm":"infcap","hints":"none"}
	]}`)
	if code != http.StatusOK {
		t.Fatalf("seed: %d", code)
	}

	all := getList(t, ts, "")
	if len(all.Runs) != 3 || all.NextAfter != 0 {
		t.Fatalf("full listing: %d runs, nextAfter %d", len(all.Runs), all.NextAfter)
	}
	for _, item := range all.Runs {
		if item.Workload != "labyrinth" || item.Scale != "small" || item.Key == "" ||
			item.ResultURL != "/v1/runs/"+item.Key || item.Size == 0 {
			t.Errorf("listing item incomplete: %+v", item)
		}
	}

	if got := getList(t, ts, "?htm=infcap"); len(got.Runs) != 1 || got.Runs[0].HTM != "InfCap" {
		t.Errorf("htm filter: %+v", got.Runs)
	}
	if got := getList(t, ts, "?workload=labyrinth&htm=p8"); len(got.Runs) != 2 {
		t.Errorf("combined filter: %d runs", len(got.Runs))
	}

	// Two pages of 2 + 1; the cursor carries the crawl.
	page1 := getList(t, ts, "?limit=2")
	if len(page1.Runs) != 2 || page1.NextAfter == 0 {
		t.Fatalf("page 1: %d runs, nextAfter %d", len(page1.Runs), page1.NextAfter)
	}
	page2 := getList(t, ts, "?limit=2&after="+itoa64(page1.NextAfter))
	if len(page2.Runs) != 1 || page2.NextAfter != 0 {
		t.Fatalf("page 2: %d runs, nextAfter %d", len(page2.Runs), page2.NextAfter)
	}
	seen := map[string]bool{}
	for _, item := range append(page1.Runs, page2.Runs...) {
		if seen[item.Key] {
			t.Errorf("key %s listed twice across pages", item.Key)
		}
		seen[item.Key] = true
	}
}

func itoa64(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}
