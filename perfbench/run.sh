#!/usr/bin/env bash
# Builds the request-path benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload warm-mix --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/service" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root: the service sources are not here" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)

rev=unknown
if [[ -d "$root/.git" ]]; then
	rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" --git-rev "$rev" --work-dir "$out/work" "$@"
