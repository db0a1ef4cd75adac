#!/usr/bin/env bash
# bench-ab.sh compares one benchmark workload between a revision and the
# working tree. It runs each tree's benchmark/run.sh in N alternating pairs
# (odd pairs run the revision first, even pairs the working tree) and prints,
# for every end-to-end metric BENCHMARK.json declares:
#
#   - each side's median and quartiles,
#   - the pairs the working tree won and lost (ties count for neither),
#   - the change of the median, flagged when it is worse than the metric's
#     bound,
#   - whether a gain may be claimed: at least nine tenths of the pairs won
#     and a median gap wider than the revision's interquartile range.
#
# Usage, from anywhere in the repository:
#
#   scripts/bench-ab.sh REV WORKLOAD [N]
#   make bench-ab REV=HEAD WORKLOAD=sim-dispatch N=10
#
# REV is extracted with git archive into a temporary directory, removed on
# exit. Each tree builds its own benchmark binary under its own
# .bench_build. A run takes from seconds to a minute, so N=10 takes minutes
# per workload: this is a tool for a change's no-regression evidence, not
# for CI.
set -euo pipefail

rev=${1:?usage: scripts/bench-ab.sh REV WORKLOAD [N]}
workload=${2:?usage: scripts/bench-ab.sh REV WORKLOAD [N]}
n=${3:-10}
if ! [[ $n =~ ^[0-9]+$ ]] || ((n < 2)); then
	echo "bench-ab: N must be at least 2, got $n" >&2
	exit 2
fi

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"

# run TREE OUT appends the result line (the last line run.sh prints) of one
# run in TREE to OUT.
run() {
	(cd "$1" && bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 20 --trace 0) | tail -n 1 >>"$2"
}

for ((i = 1; i <= n; i++)); do
	if ((i % 2)); then
		run "$tmp/base" "$tmp/base.jsonl"
		run "$root" "$tmp/head.jsonl"
	else
		run "$root" "$tmp/head.jsonl"
		run "$tmp/base" "$tmp/base.jsonl"
	fi
	echo "bench-ab: $workload pair $i/$n done" >&2
done

python3 - "$root/BENCHMARK.json" "$tmp/base.jsonl" "$tmp/head.jsonl" "$rev" "$workload" <<'PY'
import json
import statistics
import sys

bench_path, base_path, head_path, rev, workload = sys.argv[1:]
bench = json.load(open(bench_path))


def load(path):
    return [json.loads(line)["metrics"] for line in open(path) if line.strip()]


base, head = load(base_path), load(head_path)


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def side(q1, med, q3):
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


print(f"{workload}: {rev} (base) vs working tree (head), {len(base)} pairs")
print(f"{'metric':18} {'base median [q1, q3]':34} {'head median [q1, q3]':34} {'won':>4} {'lost':>4} {'median':>8}  gain")
for m in bench["end_to_end"]:
    name = m["name"]
    if name not in base[0]:
        continue
    b = [r[name]["value"] for r in base]
    h = [r[name]["value"] for r in head]
    lower = m["better"] == "lower"
    won = sum(1 for x, y in zip(b, h) if (y < x if lower else y > x))
    lost = sum(1 for x, y in zip(b, h) if (y > x if lower else y < x))
    bq1, bmed, bq3 = quartiles(b)
    hq1, hmed, hq3 = quartiles(h)
    gap = bmed - hmed if lower else hmed - bmed
    gain = won * 10 >= 9 * len(b) and gap > bq3 - bq1
    change = (hmed - bmed) / bmed if bmed else 0.0
    worse = -gap / bmed if bmed else 0.0
    flag = " WORSE THAN BOUND" if worse > m["bound"] else ""
    print(f"{name:18} {side(bq1, bmed, bq3):34} {side(hq1, hmed, hq3):34}"
          f" {won:4d} {lost:4d} {change:+8.1%}  {'yes' if gain else 'no'}{flag}")
PY
