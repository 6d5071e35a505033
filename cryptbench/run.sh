#!/usr/bin/env bash
# Builds the cryptgend daemon and the benchmark driver from source, then
# runs the driver. Run from the repository root:
#
#	bash cryptbench/run.sh --workload repeat-hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# working directory (Go build cache and temp files included).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

# With telemetry on (the default "local" mode), every go command may fork a
# detached telemetry process that outlives this script. "go telemetry off"
# is the one go command that starts none, and it turns telemetry off in the
# config directory above for the builds that follow.
go telemetry off >&2
go build -o "$out/cryptgend" ./cmd/cryptgend >&2
(cd "$root/cryptbench" && go build -o "$out/cryptbench" .) >&2
exec "$out/cryptbench" -daemon "$out/cryptgend" -module "$root" -out "$out" "$@"
