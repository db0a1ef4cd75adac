package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hintm/internal/harness"
	"hintm/internal/obs"
	"hintm/internal/store"
)

// newServerWithFakePeers builds one real server whose ring peers are the
// given fake handlers — the harness for every peer-misbehavior test. The
// returned peer URLs are in registration order (the ring sorts its nodes,
// so tests can't recover which fake is which from the ring).
func newServerWithFakePeers(t *testing.T, fleet FleetConfig, peers ...http.Handler) (*Server, *httptest.Server, *obs.Metrics, []string) {
	t.Helper()
	self := httptest.NewServer(nil) // placeholder; handler set below
	t.Cleanup(self.Close)
	urls := []string{self.URL}
	var peerURLs []string
	for _, h := range peers {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
		peerURLs = append(peerURLs, ts.URL)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := harness.QuickOptions()
	opts.Filter = []string{"labyrinth"}
	m := obs.NewMetrics()
	fleet.Self = self.URL
	fleet.Peers = urls
	if fleet.Replicas == 0 {
		fleet.Replicas = len(urls)
	}
	s := New(Config{Store: st, Options: opts, Metrics: m, Fleet: fleet})
	t.Cleanup(func() { drainAll([]*Server{s}) })
	self.Config.Handler = s.Handler()
	return s, self, m, peerURLs
}

// drainAll stops the servers' replication before the test removes their
// store directories (register it after the last t.TempDir: cleanups run
// last-registered first). A push still in flight would otherwise re-read a
// deleted object, quarantine it and rewrite the index into a directory
// being removed. Retries to unreachable or failing peers are cut short.
func drainAll(servers []*Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	for _, s := range servers {
		_ = s.Drain(ctx)
	}
}

func TestErrPeerStatusIncludesNumericCode(t *testing.T) {
	if got := errPeerStatus(599).Error(); !strings.Contains(got, "599") {
		t.Errorf("non-standard code message %q lacks the numeric code", got)
	}
	got := errPeerStatus(http.StatusBadGateway).Error()
	if !strings.Contains(got, "502") || !strings.Contains(got, "Bad Gateway") {
		t.Errorf("standard code message %q", got)
	}
}

// TestPeerFetchDegradesToSimulation: every way a peer can misbehave —
// 5xx, truncated/garbage JSON, an oversized body, a hard timeout — must
// degrade the request to a local simulation with the right error counter,
// never fail it.
func TestPeerFetchDegradesToSimulation(t *testing.T) {
	// The budget is generous for peers that answer promptly — a slow CI
	// machine streaming the 16MB oversized body must not hit the deadline,
	// because a budget expiry is deliberately not charged to the peer and
	// would mask the counter under test. Only the timeout case, which waits
	// out the whole budget by design, keeps a small one.
	cases := []struct {
		name    string
		handler http.HandlerFunc
		counter string
		budget  time.Duration
	}{
		{"5xx", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusBadGateway)
		}, "fleet_peer_errors_total", 30 * time.Second},
		{"garbage-json", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			w.Write([]byte(`{"schema":"not-a-store-entry","key":`)) // truncated, too
		}, "fleet_peer_invalid_total", 30 * time.Second},
		{"oversized-body", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			w.Write(make([]byte, maxReplicaBytes+1))
		}, "fleet_peer_errors_total", 30 * time.Second},
		{"timeout", func(w http.ResponseWriter, r *http.Request) {
			// Never answer — but drain the body first. The server only
			// notices a vanished client through its background read, which
			// it does not start while the request body is unread; the async
			// replication PUT that follows the local simulation has a body,
			// so blocking on Done() with the body unread parks this handler
			// past the client's 5s abort and wedges the httptest Close in
			// cleanup forever.
			io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
		}, "", 500 * time.Millisecond}, // budget expiry is not charged to the peer
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts, m, _ := newServerWithFakePeers(t,
				FleetConfig{PeerBudget: tc.budget}, tc.handler)
			begin := time.Now()
			code, out := postRuns(t, ts, "?wait=1", labyrinthSmall)
			elapsed := time.Since(begin)
			if code != http.StatusOK || out.Runs[0].Status != "done" || out.Runs[0].Source != "sim" {
				t.Fatalf("request did not degrade to local simulation: code=%d run=%+v", code, out.Runs[0])
			}
			if m.Value("runner_sim_runs_total") == 0 {
				t.Error("no local simulation ran")
			}
			if tc.counter != "" && m.Value(tc.counter) == 0 {
				t.Errorf("%s not incremented: %+v", tc.counter, m.Snapshot())
			}
			// Peer misbehavior must stay inside the peer budget, with wide
			// CI slack — nowhere near the old replicas × 5s worst case.
			if elapsed > 10*time.Second {
				t.Errorf("degraded request took %v", elapsed)
			}
		})
	}
}

// TestPeerOverheadBounded is the acceptance criterion for dead peers: the
// added peer time on a miss is bounded by the overall peer budget, and once
// the breakers are open it drops to zero peer calls.
func TestPeerOverheadBounded(t *testing.T) {
	blackhole := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // unread body suppresses disconnect detection (see the timeout case above)
		<-r.Context().Done()
	})
	budget := 300 * time.Millisecond
	s, ts, m, peerURLs := newServerWithFakePeers(t,
		FleetConfig{PeerBudget: budget, BreakerThreshold: 1}, blackhole, blackhole)

	begin := time.Now()
	code, out := postRuns(t, ts, "?wait=1", labyrinthSmall)
	elapsed := time.Since(begin)
	if code != http.StatusOK || out.Runs[0].Status != "done" {
		t.Fatalf("cold run with dead peers: code=%d run=%+v", code, out.Runs[0])
	}
	// The budget plus the simulation itself plus generous CI slack — the
	// point is it is nowhere near replicas × 5s = 10s.
	if elapsed > budget+5*time.Second {
		t.Fatalf("cold run took %v with a %v peer budget", elapsed, budget)
	}

	// Budget expiry is deliberately not charged to the peers, so force the
	// breakers open the way sustained real failures would.
	for _, peer := range peerURLs {
		s.health.Report(peer, false, 0)
	}
	fetches := m.Value("fleet_peer_fetch_total")

	// A different spec, still cold: with every breaker open, no peer call
	// is even attempted.
	code, out = postRuns(t, ts, "?wait=1",
		`{"workload":"labyrinth","scale":"small","htm":"p8","hints":"none"}`)
	if code != http.StatusOK || out.Runs[0].Status != "done" {
		t.Fatalf("cold run with open breakers: code=%d run=%+v", code, out.Runs[0])
	}
	if got := m.Value("fleet_peer_fetch_total"); got != fetches {
		t.Errorf("open breakers still made %d peer calls", got-fetches)
	}
	if m.Value("fleet_breaker_skipped_total") == 0 {
		t.Error("no breaker skips counted")
	}
}

// TestPeerFetchHedge: when the first owner is slow, a hedged fetch fires at
// the next one after the hedge delay and its hit wins.
func TestPeerFetchHedge(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
			return
		}
		http.NotFound(w, r)
	})
	fast := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"hit":"from-fast-peer"}`)) // peerFetch moves raw bytes; validation happens later
	})
	s, _, m, peerURLs := newServerWithFakePeers(t, FleetConfig{PeerBudget: 4 * time.Second}, slow, fast)

	// Find a key whose non-self owner order is [slow, fast] so the hedge
	// target is deterministic. Ring placement is deterministic, so this
	// search is too.
	key := ""
	for i := 0; i < 4096 && key == ""; i++ {
		cand := fmt.Sprintf("hedge-probe-%d", i)
		var nonSelf []string
		for _, n := range s.ring.Owners(cand, s.replicas) {
			if n != s.self {
				nonSelf = append(nonSelf, n)
			}
		}
		if len(nonSelf) == 2 && nonSelf[0] == peerURLs[0] && nonSelf[1] == peerURLs[1] {
			key = cand
		}
	}
	if key == "" {
		t.Fatal("no key with owner order [slow, fast] found")
	}

	begin := time.Now()
	raw := s.peerFetch(context.Background(), key, nil, 0)
	elapsed := time.Since(begin)
	if string(raw) != `{"hit":"from-fast-peer"}` {
		t.Fatalf("hedged fetch returned %q", raw)
	}
	if m.Value("fleet_hedge_total") != 1 || m.Value("fleet_hedge_wins_total") != 1 {
		t.Errorf("hedge metrics: %+v", m.Snapshot())
	}
	// Cold hedge delay is budget/8 = 500ms; the win must land well before
	// the slow peer's 2s, even with CI slack.
	if elapsed >= 2*time.Second {
		t.Errorf("hedged fetch took %v — the hedge never fired", elapsed)
	}
}

// TestBreakerRecoveryViaProbe: a peer that dies opens its breaker; when it
// comes back, the background /healthz probe closes the breaker without any
// request traffic.
func TestBreakerRecoveryViaProbe(t *testing.T) {
	var healthy atomic.Bool
	peer := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && healthy.Load() {
			w.WriteHeader(http.StatusOK)
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		http.Error(w, "down", http.StatusServiceUnavailable)
	})
	s, _, m, peerURLs := newServerWithFakePeers(t, FleetConfig{
		PeerBudget: time.Second, BreakerThreshold: 2, BreakerBackoff: 50 * time.Millisecond,
	}, peer)

	peerURL := peerURLs[0]
	s.health.Report(peerURL, false, 0)
	s.health.Report(peerURL, false, 0)
	if s.health.Allow(peerURL) {
		t.Fatal("breaker did not open")
	}

	healthy.Store(true)
	deadline := time.Now().Add(10 * time.Second)
	for !s.health.Allow(peerURL) {
		if time.Now().After(deadline) {
			t.Fatal("probe never closed the breaker")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if m.Value("fleet_breaker_closed_total") == 0 || m.Value("fleet_probe_total") == 0 {
		t.Errorf("probe metrics: %+v", m.Snapshot())
	}
}
