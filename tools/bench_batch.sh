#!/usr/bin/env bash
# Regenerates BENCH_batch.json, the T15 batched-admission perf baseline:
# the admission-layer rows (BM_Admit*: per-edge Pearce-Kelly vs one
# AddEdgesBatch recompute per batch, under ordered and shuffled edge
# arrival) and the end-to-end certifier rows (BM_Ingest*).
# tools/check_bench_regression.py gates the nightly CI
# job against it with
#
#   tools/check_bench_regression.py BENCH_batch.json candidate.json \
#     --speedup-naive BM_AdmitPerEdgeShuffled \
#     --speedup-fast  BM_AdmitBatchedShuffled/256 --min-speedup 2.0
#
# (out-of-order arrival is where one-recompute-per-batch wins; on ordered
# arrival and on the end-to-end Zipf trace the rows tie by design — see the
# header comment in bench/bench_batch_admission.cc — and the gate's
# --max-regression bound is what guards those.)
#
# Usage: tools/bench_batch.sh [output.json]
#   BUILD_DIR            build tree holding bench/ binaries (default: build)
#   NTSG_BENCH_MIN_TIME  --benchmark_min_time per bench (default: 0.05)
#   NTSG_BENCH_REPS      repetitions for the medians (default: 5)
#
# Numbers are machine- and build-type-specific: regenerate on the reference
# machine when reseeding the baseline, and read deltas, not absolutes.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
# shellcheck source=tools/bench_common.sh
source tools/bench_common.sh
ntsg_bench_prepare bench_batch_admission
MIN_TIME="${NTSG_BENCH_MIN_TIME:-0.05}"
REPS="${NTSG_BENCH_REPS:-5}"
OUT="${1:-BENCH_batch.json}"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

bin="$BUILD_DIR/bench/bench_batch_admission"
if [[ ! -x "$bin" ]]; then
  echo "missing $bin — build the bench targets first" >&2
  exit 1
fi
echo "running bench_batch_admission (reps=$REPS, min_time=$MIN_TIME)..." >&2
"$bin" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_repetitions="$REPS" \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json \
  --benchmark_out="$workdir/batch.json" \
  --benchmark_out_format=json >/dev/null
jq --arg reps "$REPS" \
  '{schema: 1,
    repetitions: ($reps | tonumber),
    context: ((.context | del(.date, .executable))
              + {repo_build_type: env.NTSG_REPO_BUILD_TYPE}),
    benches: {bench_batch_admission:
      [.benchmarks[] | del(.family_index, .per_family_instance_index,
                           .run_name, .repetitions, .repetition_index,
                           .threads)]}}' \
  "$workdir/batch.json" > "$OUT"
echo "wrote $OUT" >&2
