// Package api is the hintm-served wire format, version hintm-api/v2.
//
// Every request and response that crosses the HTTP boundary is spelled
// here, in one place, so the server (internal/server) and any client agree
// on the bytes. The
// format is explicitly versioned: responses carry a `schema` field and the
// X-Hintm-Api header, requests may state the schema they speak (an
// unrecognized one is rejected rather than misread), and errors are a
// typed envelope — {code, message, detail} — instead of prose, so clients
// branch on Code and humans read Message.
package api

import "fmt"

// Schema versions the wire format. It appears on every v2 response body
// and in the X-Hintm-Api response header.
const Schema = "hintm-api/v2"

// Header is the API version header. Servers set it on every response;
// clients may set it on requests to pin a version (unknown values are
// rejected with CodeBadRequest).
const Header = "X-Hintm-Api"

// StoreHeader reports how GET /v1/runs/{key} was served: "hit" (from the
// store) or "miss".
const StoreHeader = "X-Hintm-Store"

// Error codes. Clients branch on these; Message/Detail are for humans.
const (
	CodeBadRequest  = "bad_request" // malformed body, unknown field value
	CodeNotFound    = "not_found"   // no such run key or figure
	CodeOverloaded  = "overloaded"  // admission control refused; retry later
	CodeDraining    = "draining"    // shutting down; no new work accepted
	CodeUnavailable = "unavailable" // transient server-side condition
	CodeInternal    = "internal"    // bug or I/O failure; not the client's fault
	CodeRunFailed   = "run_failed"  // the simulation itself failed
)

// Error is the typed error payload: Code is stable and machine-matchable,
// Message says what went wrong, Detail (optional) says about which input.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Detail  string `json:"detail,omitempty"`
}

// Error implements the error interface so an api.Error can travel through
// ordinary Go error plumbing.
func (e *Error) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("%s: %s (%s)", e.Code, e.Message, e.Detail)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Errorf builds a typed Error with a formatted message.
func Errorf(code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// ErrorEnvelope is the v2 error response body.
type ErrorEnvelope struct {
	Schema string `json:"schema"`
	Error  *Error `json:"error"`
}

// RunSpec is the wire form of one experiment request. Zero fields default
// server-side: Scale to the server's configured scale, HTM to p8, Hints to
// none, SMT to 1.
type RunSpec struct {
	Workload string `json:"workload"`
	Scale    string `json:"scale,omitempty"`
	HTM      string `json:"htm,omitempty"`
	Hints    string `json:"hints,omitempty"`
	SMT      int    `json:"smt,omitempty"`
}

// RunStatus is one submitted request's disposition.
type RunStatus struct {
	// Key is the request's content address; ResultURL dereferences it.
	Key       string `json:"key"`
	Request   string `json:"request"`
	ResultURL string `json:"resultUrl"`
	// Status: "hit" (result already existed), "done" (simulated now),
	// "enqueued" (simulation started), "running" (already in flight),
	// "failed" (Error has details).
	Status string `json:"status"`
	// Source says where a hit/done result came from: "store" (the result
	// store) or "sim" (simulated now).
	Source string `json:"source,omitempty"`
	Error  *Error `json:"error,omitempty"`
}

// RunsRequest is the POST /v1/runs body: either {"requests":[spec...]} or
// one inline spec. Schema, when present, must name a version the server
// speaks.
type RunsRequest struct {
	Schema   string    `json:"schema,omitempty"`
	Requests []RunSpec `json:"requests"`
	RunSpec
}

// RunsResponse is the POST /v1/runs response body.
type RunsResponse struct {
	Schema string      `json:"schema"`
	Runs   []RunStatus `json:"runs"`
}

// GridRequest is the POST /v1/grids body: a batched submission of up to
// hundreds of RunSpecs, answered as an NDJSON event stream.
type GridRequest struct {
	Schema   string    `json:"schema,omitempty"`
	Requests []RunSpec `json:"requests"`
}

// GridRun is one grid cell's outcome, indexed by its position in the
// submitted Requests slice.
type GridRun struct {
	Index int `json:"index"`
	RunStatus
}

// GridSummary totals a grid submission. Hits counts store answers,
// Simulated cold runs executed now, Failed runs that errored.
type GridSummary struct {
	Total     int `json:"total"`
	Hits      int `json:"hits"`
	Simulated int `json:"simulated"`
	Failed    int `json:"failed"`
}

// GridEvent is one line of the POST /v1/grids NDJSON response stream:
//
//	{"schema":"hintm-api/v2","event":"accepted","total":N}
//	{"schema":"hintm-api/v2","event":"run","run":{"index":0,...}}   × N, in index order
//	{"schema":"hintm-api/v2","event":"done","summary":{...}}
//
// Run events are emitted in submission-index order (completions buffer
// until every lower index has been reported), so the whole stream is
// byte-deterministic whenever the per-run outcomes are — the property the
// grid determinism test asserts.
type GridEvent struct {
	Schema  string       `json:"schema"`
	Event   string       `json:"event"` // "accepted" | "run" | "done"
	Total   int          `json:"total,omitempty"`
	Run     *GridRun     `json:"run,omitempty"`
	Summary *GridSummary `json:"summary,omitempty"`
}

// ListItem is one stored run in a GET /v1/runs listing: the store-index
// summary plus the dereferencing URL.
type ListItem struct {
	Key       string `json:"key"`
	Seq       uint64 `json:"seq"`
	Size      int64  `json:"size"`
	Workload  string `json:"workload,omitempty"`
	Scale     string `json:"scale,omitempty"`
	HTM       string `json:"htm,omitempty"`
	Hints     string `json:"hints,omitempty"`
	ResultURL string `json:"resultUrl"`
}

// ListResponse is the GET /v1/runs response. NextAfter, when non-zero, is
// the `after` cursor for the next page (pagination is by store sequence
// number, which is stable across reads).
type ListResponse struct {
	Schema    string     `json:"schema"`
	Runs      []ListItem `json:"runs"`
	NextAfter uint64     `json:"nextAfter,omitempty"`
}
