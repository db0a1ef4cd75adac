# Convenience targets for the HinTM reproduction. Everything is plain
# `go` — these exist so the common flows are one command.

GO ?= go

.PHONY: all test vet race fuzz-short artifacts bench bench-smoke bench-diff bench-module-build parity trace-check hyp-smoke figures export clean

all: test

# test is the default gate: vet, the full suite, and the race detector over
# the concurrent packages (the scheduler and the simulator it drives).
test: vet
	$(GO) test ./...
	$(MAKE) race

# vet also fails when any Go file in the tree (the benchmark module
# included) is not gofmt-formatted, listing the files.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# race runs the concurrency-sensitive packages under the race detector; the
# harness determinism tests double as the parallel-scheduler correctness
# suite. The worker-count twin grid
# and the seed-grid golden make the harness package heavy under -race, so
# the per-package timeout is raised: concurrent packages on a starved
# single-CPU runner must wait it out, not flake.
race:
	$(GO) test -race -timeout 1800s ./internal/harness/... ./internal/sim/... \
		./internal/cli/... ./internal/hyp/...

# fuzz-short gives the three fuzzers — classifier soundness, the TIR
# parse→print→parse round trip and store-object decoding — a 10-second
# native-fuzzing budget each, enough for CI to catch regressions the seeded
# corpora miss.
fuzz-short:
	$(GO) test -run='^$$' -fuzz=FuzzClassifierSoundness -fuzztime=10s ./internal/classify
	$(GO) test -run='^$$' -fuzz=FuzzParsePrintParse -fuzztime=10s ./internal/ir
	$(GO) test -run='^$$' -fuzz=FuzzStoreEntryDecode -fuzztime=10s ./internal/store

# The full verification artifacts the repository ships with.
artifacts:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Regenerate every figure of the paper's evaluation (text tables).
figures:
	$(GO) run ./cmd/hintm-bench all

export:
	$(GO) run ./cmd/hintm-bench export > results.json

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke runs every simulator and component benchmark exactly once
# with -benchmem (the figures themselves are pinned by the harness tests and
# the seed-grid golden, not re-rendered here), plus the zero-allocation pin
# tests (testing.AllocsPerRun over the step loop, the main-thread batch and
# worker scheduling loops, tracker probe/insert, TLB hit, checkpoint
# capture/restore) — the CI gate that the benchmarks still run and the hot
# paths stay alloc-free.
bench-smoke:
	$(GO) test -run='Alloc' -bench=. -benchtime=1x -benchmem ./...

# bench-diff re-runs the small-input benchmark trajectory and fails when a
# headline metric regresses the committed BENCH_baseline.json beyond the
# tolerance (default 5%), or when the whole run's wall time regresses beyond
# the much wider wall gate (10x tolerance, floor 50% — wall clocks are
# noisy, headline metrics are not). The simulator is seeded-deterministic,
# so an unchanged tree diffs exactly zero on the metrics; regenerate the
# baseline deliberately with:
#   go run ./cmd/hintm-bench -scale small -large small -results BENCH_baseline.json all
bench-diff:
	$(GO) run ./cmd/hintm-bench -scale small -large small -results .bench-current.json all > /dev/null
	$(GO) run ./cmd/hintm-bench benchdiff BENCH_baseline.json .bench-current.json
	rm -f .bench-current.json

# bench-module-build builds and vets the benchmark module (benchmark/, its
# own go.mod) without writing a binary, so a harness API change cannot
# break it unnoticed.
bench-module-build:
	cd benchmark && $(GO) build -o /dev/null ./... && $(GO) vet ./...

# parity builds hintm-sim at REV and at the working tree and requires
# byte-identical output over every workload × six HTM configurations at
# large scale — the cross-commit check for changes that must not move a
# result, e.g. `make parity REV=HEAD`.
parity:
	./scripts/parity.sh $(REV)

# hyp-smoke re-verifies the committed hypothesis catalogue: a cold
# `hintm-exp check` (every FINDINGS.md must regenerate byte-identical),
# then a warm check with -assert-warm (every cell must be a store recall —
# zero simulations).
hyp-smoke:
	./scripts/hyp-smoke.sh

# trace-check records the same seeded run twice and requires byte-identical
# traces and autopsies — the end-to-end determinism property the
# observability layer guarantees (DESIGN.md §11).
trace-check:
	rm -rf .trace-check && mkdir -p .trace-check
	$(GO) run ./cmd/hintm-sim -scale small -trace-out .trace-check/a.json -autopsy vacation > .trace-check/a.txt
	$(GO) run ./cmd/hintm-sim -scale small -trace-out .trace-check/b.json -autopsy vacation > .trace-check/b.txt
	cmp .trace-check/a.json .trace-check/b.json
	diff .trace-check/a.txt .trace-check/b.txt
	rm -rf .trace-check

clean:
	rm -rf results.json BENCH_results.json .trace-check .bench-current.json .hintm-store
