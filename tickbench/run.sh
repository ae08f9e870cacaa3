#!/usr/bin/env bash
# Builds the tick benchmark from source and runs it. Run from the
# repository root:
#
#   bash tickbench/run.sh --workload paper-day --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the traced run's spans go under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout. Without the repository's module one level up the build
# fails and the script exits non-zero before printing a result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOMODCACHE=$out/gomod
export GOWORK=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
(cd "$here" && go build -o "$out/tickbench" .)
exec "$out/tickbench" --spans-dir "$out/spans" "$@"
