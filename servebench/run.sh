#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash servebench/run.sh --workload pop3-churn --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (compiler cache, temporary files, the
# toolchain's telemetry and the binary) goes under .bench_build in the
# current directory.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/servebench-bin" .)
exec "$out/servebench-bin" "$@"
