#!/usr/bin/env bash
# Builds aiio-server and the benchmark program from this checkout, then runs
# one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-distinct --seed 1 --seconds 15 --trace 0
#
# --workload all runs cold-distinct, hot-repeat and ingest-retrain in turn.
# Every build artifact, Go cache and scratch directory stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/aiio-server" ]]; then
	echo "perfbench: run from the aiio repository root (no go.mod or cmd/aiio-server here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local \
	GOTELEMETRY=off XDG_CONFIG_HOME="$build/config" GOENV=off

go build -o "$build/aiio-server" ./cmd/aiio-server
(cd "$root/perfbench" && go build -o "$build/perfbench" .)

work="$build/run-$$"
rm -rf "$work"
status=0
"$build/perfbench" -server "$build/aiio-server" -work "$work" "$@" || status=$?
rm -rf "$work"
exit "$status"
