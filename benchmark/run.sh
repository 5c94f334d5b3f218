#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload grow-fig4 --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh --runs 10            # every workload, seeds 1..10
#   bash benchmark/run.sh -compare base.json new.json
#
# Everything the build writes (compiler cache, binary, scratch files)
# stays under .bench_build/ in the current directory. The toolchain never
# goes to the network: the module's only dependency is the repository
# itself, through the replace directive in go.mod.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
# The go command keeps its settings and telemetry under the user config
# directory; point that inside the build directory too.
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/boatbench" .)
exec "$build/boatbench" -workdir "$build" "$@"
