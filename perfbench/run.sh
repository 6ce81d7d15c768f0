#!/usr/bin/env bash
# Builds cmd/swserve and the benchmark from the checkout's sources and runs
# the benchmark. Run it from the root of a checkout:
#
#	bash perfbench/run.sh --workload named-durable --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache and Go's own settings included,
# stays under .bench_build/perfbench in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/swserve || ! -d internal/serve ]]; then
	echo "perfbench: run from the root of a slidingsample checkout (go.mod, cmd/swserve, internal/serve)" >&2
	exit 1
fi

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
if [[ ! -f "$out/config/go/telemetry/mode" ]]; then
	go telemetry off
fi

go build -o "$out/swserve" ./cmd/swserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -swserve "$out/swserve" -workdir "$out/work" "$@"
