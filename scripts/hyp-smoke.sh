#!/usr/bin/env bash
# hyp-smoke: the hypothesis-catalogue reproducibility gate.
#
# Runs `hintm-exp check` over every committed hypothesis at small scale
# against a fresh temp store:
#
#   1. cold pass — two hintm-exp processes at once, each checking one half
#      of the catalogue into the same store directory. Every grid cell
#      simulates; each regenerated FINDINGS.md must be byte-identical to the
#      committed copy (non-zero exit on any drift), proving the committed
#      verdicts are what the current tree measures;
#   2. warm pass — the whole catalogue checked again with -assert-warm,
#      which exits non-zero unless the store recalled every cell (0 sim-runs
#      and 0 derived), proving re-verification is free once a store is
#      populated, and that two processes sharing one store directory kept
#      each other's runs.
set -euo pipefail

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

go build -o "$TMP/hintm-exp" ./cmd/hintm-exp

# Hypothesis names are the unindented lines of `list`; split them into two
# disjoint halves, one per cold process.
mapfile -t names < <("$TMP/hintm-exp" list | grep -v '^ ')
half=$(( (${#names[@]} + 1) / 2 ))
first=$(IFS=,; echo "${names[*]:0:half}")
second=$(IFS=,; echo "${names[*]:half}")

echo "hyp-smoke: cold check in two concurrent processes sharing one store (every cell simulates, findings must not drift)"
"$TMP/hintm-exp" -scale small -store "$TMP/store" -hypothesis "$first" check > "$TMP/first.out" 2>&1 &
pid1=$!
"$TMP/hintm-exp" -scale small -store "$TMP/store" -hypothesis "$second" check > "$TMP/second.out" 2>&1 &
pid2=$!
status=0
wait "$pid1" || status=1
wait "$pid2" || status=1
cat "$TMP/first.out" "$TMP/second.out"
if [ "$status" -ne 0 ]; then
	echo "hyp-smoke: a cold check failed"
	exit 1
fi

echo "hyp-smoke: warm check (every cell must be a store recall)"
"$TMP/hintm-exp" -scale small -store "$TMP/store" -assert-warm check

echo "hyp-smoke: OK"
