# Convenience targets for the HinTM reproduction. Everything is plain
# `go` — these exist so the common flows are one command.

GO ?= go

.PHONY: all test vet race fuzz-short artifacts bench bench-smoke bench-diff bench-ab bench-module-build hyp-smoke figures clean

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
# suite, and the store's tests put from many Store values at once. The
# worker-count twin grid and the golden's small section (its large section
# is skipped under -race) make the harness package heavy under -race, so
# the per-package timeout is raised: concurrent packages on a starved
# single-CPU runner must wait it out, not flake.
race:
	$(GO) test -race -timeout 1800s ./internal/harness/... ./internal/sim/... \
		./internal/cli/... ./internal/hyp/... ./internal/store/...

# fuzz-short gives the five fuzzers — classifier soundness, the TIR
# parse→print→parse round trip, store-object decoding, the cache's LRU
# recency word against the stamp-based model, and the HTM tracker against
# its map-based model — a 10-second native-fuzzing budget each, enough for
# CI to catch regressions the seeded corpora miss.
fuzz-short:
	$(GO) test -run='^$$' -fuzz=FuzzClassifierSoundness -fuzztime=10s ./internal/classify
	$(GO) test -run='^$$' -fuzz=FuzzParsePrintParse -fuzztime=10s ./internal/ir
	$(GO) test -run='^$$' -fuzz=FuzzStoreEntryDecode -fuzztime=10s ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzLRUMatchesStamps -fuzztime=10s ./internal/cache
	$(GO) test -run='^$$' -fuzz=FuzzTrackerMatchesModel -fuzztime=10s ./internal/htm

# The full verification artifacts the repository ships with.
artifacts:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Regenerate every figure of the paper's evaluation (text tables).
figures:
	$(GO) run ./cmd/hintm-bench all

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke runs every simulator and component benchmark exactly once
# with -benchmem (the figures themselves are pinned by the harness tests and
# the golden, not re-rendered here), plus the zero-allocation pin
# tests (testing.AllocsPerRun over the step loop, the main-thread batch and
# worker scheduling loops, tracker probe/insert, TLB hit, checkpoint
# capture/restore) — the CI gate that the benchmarks still run and the hot
# paths stay alloc-free.
bench-smoke:
	$(GO) test -run='Alloc' -bench=. -benchtime=1x -benchmem ./...

# bench-diff re-runs the paper-scale figure grid and fails when its
# production counts (cold runs, derived cells, simulated cycles) differ at
# all from the committed BENCH_baseline.json's, or when its wall time
# exceeds 1.5x the baseline's. Every cell's result is pinned by the golden
# (TestGolden); this gate covers what the grid costs. The simulator is
# seeded-deterministic, so an unchanged tree makes the same counts;
# regenerate the baseline deliberately with:
#   go run ./cmd/hintm-bench -scale large -large large -results BENCH_baseline.json all
bench-diff:
	$(GO) run ./cmd/hintm-bench -scale large -large large -results .bench-current.json all > /dev/null
	$(GO) run ./cmd/hintm-bench benchdiff BENCH_baseline.json .bench-current.json
	rm -f .bench-current.json

# bench-ab compares the benchmark workload WORKLOAD between revision REV
# and the working tree in N alternating pairs of benchmark/run.sh runs, and
# prints each end-to-end metric's medians, quartiles, pairs won and whether
# a gain may be claimed (scripts/bench-ab.sh). Minutes per workload, so not
# part of CI:
#   make bench-ab REV=HEAD WORKLOAD=sim-dispatch N=10
N ?= 10
bench-ab:
	./scripts/bench-ab.sh "$(REV)" "$(WORKLOAD)" "$(N)"

# bench-module-build builds and vets the benchmark module (benchmark/, its
# own go.mod) without writing a binary, so a harness API change cannot
# break it unnoticed.
bench-module-build:
	cd benchmark && $(GO) build -o /dev/null ./... && $(GO) vet ./...

# hyp-smoke re-verifies the committed hypothesis catalogue: a cold
# `hintm-exp check` as two concurrent processes over disjoint halves of the
# catalogue sharing one store (every FINDINGS.md must regenerate
# byte-identical), then a warm check with -assert-warm (every cell must be
# a store recall — zero simulations, zero derived).
hyp-smoke:
	./scripts/hyp-smoke.sh

clean:
	rm -rf BENCH_results.json .bench-current.json .hintm-store
