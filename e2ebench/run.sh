#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload coalesce --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and Go's own config stay under
# .bench_build/ in the current directory, so the script writes nowhere
# else. It exits non-zero without a result when the repository's Go
# module is not beside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the repository root (go.mod and e2ebench/go.mod not found)" >&2
	exit 2
fi
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
