#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload <plan-exact|service-mix|recovery|all> \
#       --seed <n> --seconds <s> --trace <0|1>
# "--workload all" must come first; it runs every workload in turn and
# exits non-zero when any of them does.
# Every build artefact (binary, Go build cache) stays under .bench_build/
# in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
if [ "${1:-}" = --workload ] && [ "${2:-}" = all ]; then
	shift 2
	status=0
	for w in plan-exact service-mix recovery; do
		echo "# workload $w"
		"$out/perfbench" --workload "$w" "$@" || status=1
	done
	exit "$status"
fi
exec "$out/perfbench" "$@"
