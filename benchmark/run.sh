#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and runs
# it with the given arguments, e.g. from the repository root:
#
#   bash benchmark/run.sh --workload sim-dispatch --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every temporary file stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout, and the Go
# toolchain is kept offline. A failed build exits non-zero without printing
# a result line.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$(pwd)/$out ;;
esac
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/hintm-perf" .) >&2
exec "$out/hintm-perf" "$@"
