#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build outputs (binary, Go build cache) stay under .bench_build in the
# checkout. The toolchain is never fetched: the local go must do.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
if [ -d "$root/.git" ] && command -v git >/dev/null; then
	PERFBENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
	export PERFBENCH_COMMIT
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
