#!/usr/bin/env bash
# Builds capserved and the perfbench load generator from the checkout's
# sources, then runs one benchmark workload. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload cold-enumerate --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout (Go build cache included).
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/capserved || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a repro checkout (go.mod, cmd/capserved and perfbench/ not found)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/capserved" ./cmd/capserved
(cd perfbench && go build -o "$out/perfbench" .)

exec "$out/perfbench" -capserved "$out/capserved" -workdir "$out" "$@"
