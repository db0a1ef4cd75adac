#!/usr/bin/env bash
# prefix-smoke: the warm-up prefix-sharing perf gate.
#
# Runs the full small-scale figure grid twice against fresh stores:
#
#   1. cold pass — `-prefix-share=false`, every grid point simulates its
#      own warm-up;
#   2. shared pass — sharing on (the default), sibling grid points fork a
#      snapshot of their common warm-up prefix;
#
# then once more over the shared pass's store:
#
#   3. warm pass — every figure, Fig. 1's sharing reports included, is
#      recalled from the store.
#
# Then asserts the properties the subsystem guarantees:
#
#   * byte identity — the content-addressed object files the two passes
#     persist must be identical, file for file (object payloads exclude
#     index bookkeeping, so this is exactly "every simulation produced the
#     same bytes"; Fig. 1's InfCap objects carry the sharing report, so the
#     forked and cold reports are compared too);
#   * sharing actually happened — the shared pass's BENCH_results.json must
#     report at least MIN_SHARED prefix-forked runs and a shorter (or at
#     worst marginally slower) wall time is left to bench-diff's gate;
#   * a warm render never simulates — the warm pass's results report no
#     cold and no prefix-forked runs.
set -euo pipefail

cd "$(dirname "$0")/.."

MIN_SHARED="${MIN_SHARED:-50}"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

go build -o "$TMP/hintm-bench" ./cmd/hintm-bench

echo "prefix-smoke: cold pass (sharing off)"
"$TMP/hintm-bench" -scale small -large small -prefix-share=false \
    -store "$TMP/cold-store" -results "$TMP/cold.json" all > /dev/null

echo "prefix-smoke: shared pass (sharing on)"
"$TMP/hintm-bench" -scale small -large small \
    -store "$TMP/shared-store" -results "$TMP/shared.json" all > /dev/null

echo "prefix-smoke: warm pass (shared pass's store)"
"$TMP/hintm-bench" -scale small -large small \
    -store "$TMP/shared-store" -results "$TMP/warm.json" all > /dev/null

echo "prefix-smoke: store byte identity"
diff -r "$TMP/cold-store/objects" "$TMP/shared-store/objects"

COLD_SHARED=$(grep -o '"prefixShared": *[0-9]*' "$TMP/cold.json" | grep -o '[0-9]*$' || echo 0)
SHARED=$(grep -o '"prefixShared": *[0-9]*' "$TMP/shared.json" | head -1 | grep -o '[0-9]*$' || echo 0)

if [ "$COLD_SHARED" != "0" ]; then
    echo "prefix-smoke: FAIL — sharing-off pass still forked $COLD_SHARED runs" >&2
    exit 1
fi
if [ "$SHARED" -lt "$MIN_SHARED" ]; then
    echo "prefix-smoke: FAIL — shared pass forked only $SHARED runs (want >= $MIN_SHARED)" >&2
    exit 1
fi

if grep -Eq '"(coldRuns|prefixShared)": *[1-9]' "$TMP/warm.json" || ! grep -Eq '"storeHits": *[1-9]' "$TMP/warm.json"; then
    echo "prefix-smoke: FAIL — warm pass simulated instead of reading the store:" >&2
    grep -E '"(coldRuns|prefixShared|storeHits)"' "$TMP/warm.json" >&2
    exit 1
fi

echo "prefix-smoke: OK ($SHARED prefix-forked runs, stores byte-identical, warm pass simulated nothing)"
