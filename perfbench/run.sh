#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload mixed-zipf --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Build cache, binary and span records stay
# under .bench_build/ there; nothing is written elsewhere.
set -euo pipefail
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin" # Go's default install location
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
