#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, from
# the repository root (where BENCHMARK.json is). Everything the build leaves
# behind — binary, Go build cache, GOPATH, the toolchain's telemetry counters
# — stays under .bench_build/ in the checkout. A checkout without the
# repository's own go.mod and internal/ packages fails here, in the build,
# before anything is measured.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-modcacherw GOTOOLCHAIN=local

(cd "$root/benchmark" && XDG_CONFIG_HOME="$build/config" go build -o "$build/jmsbench" .)
cd "$root"
exec "$build/jmsbench" "$@"
