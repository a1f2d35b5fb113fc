#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload table1_cold --seed 1 --seconds 35 --trace 0
#   bash perfbench/run.sh all --seed 1 --seconds 35 --trace 0   # every workload
#
# Run from the repository root. Everything the build and the run write
# stays under the build directory ($CARGO_TARGET_DIR, default
# .bench_build): the Go build cache, the binary, spans, stores and reports.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOPROXY=off GOTOOLCHAIN=local
export XDG_CONFIG_HOME=$out/config # keeps go's telemetry and env files inside the checkout
go -C perfbench build -o "$out/bin/perfbench" .
bench=("$out/bin/perfbench" --data "$root/perfbench" --out "$out/perfbench")
if [ "${1:-}" = all ]; then
	shift
	for w in table1_cold search_warm serve_mix; do
		"${bench[@]}" --workload "$w" "$@"
	done
	exit 0
fi
exec "${bench[@]}" "$@"
