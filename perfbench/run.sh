#!/usr/bin/env bash
# Builds the simulator and the benchmark from source, then runs the
# benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# repository root: the Go build cache, the binaries, and the scratch files
# of each run.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -d cmd/vcsimd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a vcache checkout (simulator sources not found)" >&2
	exit 2
fi

root=$PWD
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
out="$build/perfbench"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config" "$out/work"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/vcsimd" ./cmd/vcsimd
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" --bin "$out/bin" --work "$out/work" "$@"
