#!/usr/bin/env bash
# parity: result byte-identity against another git revision.
#
#   scripts/parity.sh <rev>        (or: make parity REV=<rev>)
#
# Builds hintm-sim at <rev> (extracted with git archive under $TMPDIR) and
# at the working tree, runs both over every workload × six HTM
# configurations (P8 baseline, P8/HinTM, P8S/HinTM, L1TM+SMT2/HinTM, InfCap,
# STM/HinTM) at large scale, seed 1, and diffs their outputs. hintm-sim
# sizes the machine by the figure harness's rule, so the L1TM+SMT2 runs are
# Fig. 8's HinTM cells (every core shared). Exits non-zero
# on any difference, on a run that fails on either side, or when the two
# builds do not list the same non-empty set of workloads.
set -euo pipefail

REV="${1:?usage: scripts/parity.sh <git rev>}"

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

mkdir "$TMP/rev"
git archive "$REV" | tar -x -C "$TMP/rev"
(cd "$TMP/rev" && go build -o "$TMP/sim-rev" ./cmd/hintm-sim)
go build -o "$TMP/sim-cur" ./cmd/hintm-sim

CONFIGS=(
    "-htm p8 -hints none"
    "-htm p8 -hints full"
    "-htm p8s -hints full"
    "-htm l1tm -smt 2 -hints full"
    "-htm infcap -hints none"
    "-htm stm -hints full"
)
APPS=$("$TMP/sim-cur" -list | awk 'NR > 2 { print $1 }')
REV_APPS=$("$TMP/sim-rev" -list | awk 'NR > 2 { print $1 }')
if [ -z "$APPS" ]; then
    echo "parity: hintm-sim -list printed no workloads" >&2
    exit 1
fi
if [ "$APPS" != "$REV_APPS" ]; then
    echo "parity: workload lists differ between $REV and the working tree" >&2
    exit 1
fi
want=$(( $(wc -w <<< "$APPS") * ${#CONFIGS[@]} ))

# run BIN APP CONFIG OUT: one simulation; a non-zero exit fails the script.
run() {
    # shellcheck disable=SC2086 # each config is a list of flags
    if ! "$1" -scale large -seed 1 $3 "$2" > "$4" 2>&1; then
        echo "parity: FAIL $1 $3 $2" >&2
        cat "$4" >&2
        exit 1
    fi
}

same=0
total=0
for app in $APPS; do
    for c in "${CONFIGS[@]}"; do
        total=$((total + 1))
        run "$TMP/sim-rev" "$app" "$c" "$TMP/rev.out"
        run "$TMP/sim-cur" "$app" "$c" "$TMP/cur.out"
        if cmp -s "$TMP/rev.out" "$TMP/cur.out"; then
            same=$((same + 1))
        else
            echo "parity: DIFF $app $c" >&2
            diff "$TMP/rev.out" "$TMP/cur.out" >&2 || true
        fi
    done
done

echo "parity: $same/$total cells identical to $REV (large, seed 1)"
[ "$total" -eq "$want" ] && [ "$same" -eq "$total" ]
