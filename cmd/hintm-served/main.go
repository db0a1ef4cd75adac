// Command hintm-served is the persistent experiment service: it keeps a
// scheduler and a content-addressed result store resident, so experiments
// are submitted over HTTP, simulated at most once, and served from the
// store forever after — across clients and across restarts.
//
// Usage:
//
//	hintm-served [flags]
//
// Flags:
//
//	-addr HOST:PORT             listen address (default 127.0.0.1:8347)
//	-store DIR                  result store directory (default .hintm-store)
//	-scale small|medium|large   default input scale for requests/figures
//	-large small|medium|large   input scale for Fig 7/8 assembly
//	-workloads a,b,c            restrict figure assembly to a subset
//	-seed N                     simulation seed (part of every store key)
//	-workers N                  concurrent simulations (0 = GOMAXPROCS)
//	-faults SPEC                fault-injection plan applied to every run
//	-watchdog N                 livelock watchdog cycles per run
//	-max-cycles N               hard cap on each run's simulated cycles
//	-trace-dir DIR              per-run trace/autopsy artifacts, linked
//	                            from each store entry
//	-drain D                    graceful-shutdown budget (default 30s)
//	-queue-limit N              max admitted-but-unfinished runs before
//	                            submissions get 429 (default 256); a
//	                            submission of more runs than this is a 400
//
// Endpoints (wire format hintm-api/v2, see internal/api):
//
//	POST /v1/runs[?wait=1]   submit a run or a grid; hits answer instantly
//	POST /v1/grids           batched grid; NDJSON per-run progress stream
//	GET  /v1/runs            list stored results (?workload=, ?htm=,
//	                         ?limit=, ?after= pagination)
//	GET  /v1/runs/{key}      stored result (byte-identical per key) or 202
//	GET  /v1/figures/{name}  figure rows assembled from the store
//	GET  /healthz            liveness + build info + store/queue summary
//	GET  /metrics            store hits/misses, queue depth, sim runs, and
//	                         the serve_request_seconds latency histogram
//	                         labeled by outcome
//
// On SIGINT/SIGTERM the listener stops accepting, enqueued runs get the
// drain budget to finish persisting, and only then does the process exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"hintm/internal/cli"
	"hintm/internal/obs"
	"hintm/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8347", "listen address")
	storeDir := cli.RegisterStore(flag.CommandLine, ".hintm-store")
	hf := cli.RegisterHarness(flag.CommandLine)
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight runs")
	queueLimit := flag.Int("queue-limit", 0, "max admitted-but-unfinished runs before submissions get 429 (0 = default)")
	flag.Parse()

	opts, err := hf.Options()
	if err != nil {
		fatal(err)
	}
	st, err := cli.OpenStore(*storeDir)
	if err != nil {
		fatal(err)
	}

	srv := server.New(server.Config{Store: st, Options: opts, Metrics: obs.NewMetrics(), QueueLimit: *queueLimit})

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	// SIGTERM alongside SIGINT: containers and service managers send TERM,
	// and a drained shutdown is what keeps the store's index consistent
	// with every run clients were promised.
	ctx, stop := cli.Context(0)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "hintm-served: listening on %s (store %s, %d entries)\n",
		*addr, *storeDir, st.Len())

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	fmt.Fprintf(os.Stderr, "hintm-served: shutting down, draining for up to %v\n", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "hintm-served: shutdown:", err)
	}
	if err := srv.Drain(drainCtx); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "hintm-served: drained cleanly")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hintm-served:", err)
	os.Exit(1)
}
