#!/usr/bin/env bash
# Prints one sha256 per recorded miragesim scenario's -trace output. The
# simulator is deterministic, so a change that is supposed to leave the
# protocol alone must print exactly scripts/tracesha.txt:
#
#	bash scripts/tracesha.sh | diff scripts/tracesha.txt -
#
# A change that means to alter a trace regenerates the file and says why.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/miragesim" ./cmd/miragesim

crash='crash site=0 from=2s'
run() {
	name=$1
	shift
	"$tmp/miragesim" "$@" -trace "$tmp/$name.jsonl" >/dev/null
	printf '%s  %s\n' "$(sha256sum <"$tmp/$name.jsonl" | cut -d' ' -f1)" "$name"
}

run counters-failover -workload counters -dur 4s -chaos "$crash" -failover
run readers-failover -workload readers -sites 3 -dur 4s -chaos "$crash" -failover
run readers-replicas -workload readers -sites 4 -dur 4s -replicas 2 -chaos "$crash"
run affinity-migrate -workload affinity -sites 4 -rate 150 -dur 16s -migrate
run pingpong-autodelta -workload pingpong -delta 100ms -dur 5s -autodelta
run counters -workload counters -delta 600ms -dur 5s
run pingpong -workload pingpong -delta 33ms -dur 5s
run counters-chaos -workload counters -delta 120ms -dur 5s \
	-chaos 'drop p=0.05; dup p=0.1; delay p=0.2 max=5ms' -chaos-seed 7
run readers-fanout -workload readers -sites 100 -fanout 8 -delta 20ms -dur 4s
run service -workload service -sites 4 -rate 25 -dur 2s
