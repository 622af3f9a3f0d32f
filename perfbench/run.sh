#!/usr/bin/env bash
# Builds the benchmark from the source next to it and runs it. From the
# repository root:
#
#   bash perfbench/run.sh --workload ft64-adaptive-uniform --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary and the traced run's files go to .bench_build/
# at the repository root; nothing is written elsewhere.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build/go-config/go/telemetry" "$build/tmp"

# The go command keeps its settings and telemetry under the user config
# directory. Point that inside the build directory, with telemetry off, so
# the toolchain writes nowhere else and starts no background process.
printf 'off 2000-01-01\n' >"$build/go-config/go/telemetry/mode"
export XDG_CONFIG_HOME="$build/go-config" \
	GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/out" "$@"
