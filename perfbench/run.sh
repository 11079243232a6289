#!/usr/bin/env bash
# Builds hybridserve, hybridrouter and the benchmark program from source
# and runs it; every argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload corel-query --seed 1 --seconds 30 --trace 0
#
# Build caches, temporary files and run output all stay under
# .bench_build/ at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/run" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
cd "$root"
# A go command with telemetry on starts a detached sidecar process that
# can outlive the benchmark; the fresh config directory above would
# otherwise default to it.
go telemetry off
go build -o "$out/bin/" ./cmd/hybridserve ./cmd/hybridrouter
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/run" "$@"
