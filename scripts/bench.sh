#!/usr/bin/env bash
# Regenerate a kernel-benchmark JSON record: the paper-table artifacts
# that dominate `rvtable -exp all` (T1, T3, T4, T6), the simulator's
# segment loop alone and with per-round program generation, the
# instruction-stream cursor engine, the batch pool, the memoization
# pre-pass, the distributed coordinator (local worker subprocesses;
# synchronous vs windowed dispatch; per-call fleets vs a reused
# session; concurrent tenants vs serialized dispatches; distributed
# Monte-Carlo chunks), and the WAN wire path
# (emulated delay/bandwidth link with compression on vs off; pooled
# frame write/read micro-benchmarks).
#
# Usage:  scripts/bench.sh [benchtime] [out.json] [note]
# e.g.    scripts/bench.sh                               # 2s -> BENCH_local.json
#         scripts/bench.sh 100x BENCH_CI.json "CI run"   # CI passes name + note
#         scripts/bench.sh 2s BENCH_PR7.json "PR7: ..."  # next PR's committed record
#
# The output name and note always come from the arguments (with
# throwaway defaults), never from a hardcoded PR label: a stale default
# silently mislabels every future run, which is how a perf record lies.
# Committed BENCH_PR*.json records pass both explicitly.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${1:-2s}"
OUT="${2:-BENCH_local.json}"
NOTE="${3:-Local benchmark run (benchtime=$BENCHTIME). Not a committed PR record: pass an output name and note to label one, see DESIGN.md §9.}"
PATTERN='BenchmarkT1Feasibility|BenchmarkT6Boundary|BenchmarkT3Coverage|BenchmarkT4Boundary|BenchmarkInstrStream|BenchmarkEngineThroughput|BenchmarkT2Type|BenchmarkBatchT2Workers|BenchmarkDedup|BenchmarkDistT2Procs|BenchmarkDistT2Window|BenchmarkDistT2Session|BenchmarkDistT5Chunks|BenchmarkDistT2WAN|BenchmarkDistT5WAN|BenchmarkDistMultiTenant|BenchmarkFrameWrite|BenchmarkFrameRoundTrip|BenchmarkPlanarWalkGen'

# Write to a temp file and move into place only on success, so a
# failed bench run never clobbers the committed perf record.
TMP="$(mktemp "$OUT.XXXXXX")"
trap 'rm -f "$TMP"' EXIT

go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" ./... |
  go run ./cmd/benchjson -note "$NOTE" > "$TMP"

mv "$TMP" "$OUT"
trap - EXIT
echo "wrote $OUT"
