#!/usr/bin/env bash
# Builds the benchmark from the checkout's own source and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The binary, the Go build cache and the
# trace files stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/wave" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, wave/ and perfbench/ expected)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

bin="$out/perfbench"
(cd "$root/perfbench" && go build -o "$bin.$$" .) >&2
mv -f "$bin.$$" "$bin"
exec "$bin" -root "$root" -out "$out" "$@"
