#!/usr/bin/env bash
# bench.sh — run the canonical benchmarks and emit BENCH_8.json, the
# machine-readable performance baseline of this repository.
#
# Usage:
#   scripts/bench.sh                 # quick smoke (BENCHTIME=1x), writes BENCH_8.json
#   BENCHTIME=200ms scripts/bench.sh # steadier timings
#   OUT=/tmp/b.json scripts/bench.sh
#
# The JSON records ns/op, B/op and allocs/op per benchmark (plus any
# custom ReportMetric columns, e.g. the datacenter solver's outer/op),
# the GOMAXPROCS each benchmark ran at and the host core count, and, for
# every benchmark family with threads=N sub-runs, the speedup of each
# threaded variant over its threads=1 twin (threads=N runs with
# N > GOMAXPROCS are tagged "oversubscribed" and excluded). Since
# schema bench.v3 the run is STREAM-calibrated: BenchmarkStreamTriad's
# measured rate becomes the document's `stream_triad_mb_s`, and every
# bandwidth-reporting kernel bench gets `fraction_of_peak` — its MB/s as
# a fraction of the triad ceiling — so a baseline reads as "kernel X at
# Y% of this host's memory bandwidth" instead of a bare ns/op. Since
# BENCH_8 the set also covers the thermservd service layer
# (internal/serve): the memo-hit vs cold miss steady tiers, and the
# deterministic open-loop load runs whose ReportMetric columns (p50_ms,
# p99_ms, qps, hit_rate) are the service-level latency table. CI runs this script on every push and archives BENCH_8.json as
# a build artifact so future PRs can diff against a baseline instead of
# eyeballing benchmark logs.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1x}"
OUT="${OUT:-BENCH_8.json}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# The canonical benchmark set: solver and session hot paths, the fused
# smoother kernel with the STREAM triad it is judged against, the nested datacenter fleet solve, the thermservd service
# tiers and load runs (internal packages) plus the sweep engine (root
# package).
go test -run=NONE -bench='Solve|Session|MG|Stencil|Fused|Triad|Datacenter|Serve' -benchtime="$BENCHTIME" -benchmem \
	./internal/thermal ./internal/cosim ./internal/linalg ./internal/datacenter ./internal/serve | tee "$raw"
go test -run=NONE -bench='Sweep' -benchtime="$BENCHTIME" -benchmem . | tee -a "$raw"

python3 scripts/bench_json.py "$raw" "$BENCHTIME" > "$OUT"
echo "wrote $OUT"
