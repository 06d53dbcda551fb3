#!/usr/bin/env bash
# Builds lmtd and the benchmark driver from source, then runs one workload.
#
#   bash perfbench/run.sh --workload serve|solve|cluster --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything the build and the run write stays
# under .bench_build/ (or $CARGO_TARGET_DIR when set): the Go build cache, the
# binaries, temporary files and the span dumps of traced runs. The last line
# of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOTMPDIR=$out/tmp
export TMPDIR=$out/tmp
export HOME=$out/home
export XDG_CONFIG_HOME=$out/home/.config
export GOTOOLCHAIN=local
export CGO_ENABLED=0

go build -o "$out/bin/lmtd" ./cmd/lmtd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -lmtd "$out/bin/lmtd" -out "$out" "$@"
