#!/usr/bin/env bash
# Runs every benchmark binary in JSON mode and merges the outputs into one
# BENCH_RESULTS.json at the repository root, so a single file records the
# numbers behind DESIGN.md's experiment table.
#
# Usage: bench/run_all.sh [build-dir] [min-time-seconds]
#
# Each google-benchmark binary is invoked with --benchmark_format=json;
# per-binary results land in <build-dir>/bench/*.json and are merged with
# host context (cores, date, build type) under "runs". Pass a larger
# min-time for publication-quality numbers; the default 0.05s keeps a full
# sweep under a few minutes.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
MIN_TIME="${2:-0.05}"
OUT="BENCH_RESULTS.json"

if [[ ! -d "$BUILD_DIR/bench" ]]; then
  echo "error: $BUILD_DIR/bench not found; build the project first" >&2
  exit 1
fi

benches=()
for bin in "$BUILD_DIR"/bench/bench_*; do
  [[ -x "$bin" && ! "$bin" == *.json ]] || continue
  benches+=("$bin")
done
if [[ ${#benches[@]} -eq 0 ]]; then
  echo "error: no bench_* binaries under $BUILD_DIR/bench" >&2
  exit 1
fi

jsons=()
for bin in "${benches[@]}"; do
  name="$(basename "$bin")"
  json="$BUILD_DIR/bench/$name.json"
  echo "== $name"
  "$bin" --benchmark_format=json --benchmark_min_time="$MIN_TIME" \
    > "$json"
  jsons+=("$json")
done

# Merge: {"context": {...host facts...}, "runs": {bench name: output}}.
# Each derived block below is skipped when its source binary did not run,
# and fails the script when the binary ran but yielded no matched points
# (a renamed series must not silently drop its summary).
jq -n \
  --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
  --arg cores "$(nproc)" \
  --arg build_type "$(grep -m1 CMAKE_BUILD_TYPE "$BUILD_DIR/CMakeCache.txt" \
                      | cut -d= -f2)" \
  --arg min_time "$MIN_TIME" \
  '{context: {date: $date, cores: ($cores | tonumber),
              build_type: $build_type,
              min_time_seconds: ($min_time | tonumber)},
    runs: {}}' > "$OUT.tmp"
for json in "${jsons[@]}"; do
  name="$(basename "$json" .json)"
  jq --arg name "$name" --slurpfile run "$json" \
    '.runs[$name] = $run[0]' "$OUT.tmp" > "$OUT.tmp2"
  mv "$OUT.tmp2" "$OUT.tmp"
done
# Governor overhead: mean governed/ungoverned real-time ratio across the
# matched bench_governor datalog size points (the only with/without-polls
# pair on identical work). Recorded under .governor so regressions against
# the < 3% target show up in the merged file, not just in a CI log.
jq '
  (.runs.bench_governor.benchmarks // []) as $b
  | [ $b[] | select(.name | startswith("BM_Governor_Datalog_Governed/"))
      | {size: (.name | split("/")[1]), t: .real_time} ] as $gov
  | [ $b[] | select(.name | startswith("BM_Governor_Datalog_Ungoverned/"))
      | {size: (.name | split("/")[1]), t: .real_time} ] as $base
  | [ $gov[] as $g | $base[] | select(.size == $g.size)
      | ($g.t / .t) ] as $ratios
  | if ($ratios | length) > 0 then
      .governor = {overhead_ratio: (($ratios | add) / ($ratios | length)),
                   target_max_ratio: 1.03,
                   points: ($ratios | length)}
    elif .runs.bench_governor then
      error("bench_governor ran but matched no Governed/Ungoverned points")
    else . end
' "$OUT.tmp" > "$OUT.tmp2"
mv "$OUT.tmp2" "$OUT.tmp"
# Scheduler overhead: mean Scheduled(1-worker)/Direct real-time ratio on
# matched bench_scheduler size points (identical parse+load+evaluate work,
# with vs without admission/governor/pool bookkeeping), plus the 16-query
# batch wall time per worker count. Recorded under .scheduler.
jq '
  (.runs.bench_scheduler.benchmarks // []) as $b
  | [ $b[] | select(.name | startswith("BM_Scheduler_Scheduled/"))
      | {size: (.name | split("/")[1]), t: .real_time} ] as $sched
  | [ $b[] | select(.name | startswith("BM_Scheduler_Direct/"))
      | {size: (.name | split("/")[1]), t: .real_time} ] as $direct
  | [ $sched[] as $s | $direct[] | select(.size == $s.size)
      | ($s.t / .t) ] as $ratios
  | [ $b[] | select(.name | startswith("BM_Scheduler_Throughput/"))
      | {workers: (.name | split("/")[1]), batch_ms: .real_time} ]
      as $throughput
  | if ($ratios | length) > 0 then
      .scheduler = {overhead_ratio: (($ratios | add) / ($ratios | length)),
                    target_max_ratio: 1.10,
                    points: ($ratios | length),
                    throughput: $throughput}
    elif .runs.bench_scheduler then
      error("bench_scheduler ran but matched no Scheduled/Direct points")
    else . end
' "$OUT.tmp" > "$OUT.tmp2"
mv "$OUT.tmp2" "$OUT.tmp"
# Register-VM engine: per-workload speedup of the flat-IL VM over the
# tree-walker on matched bench_vm series (identical program + input; the
# _TreeWalk/_Vm name pairs differ only in EvalOptions::engine, or in
# EvalMode kSemiNaiveIndexed vs kVm for the Datalog pair). Recorded under
# .vm so the VM-vs-tree-walk trajectory lives in the merged file.
jq '
  (.runs.bench_vm.benchmarks // []) as $b
  | [ $b[] | select(.name | contains("_Vm/"))
      | {key: (.name | sub("_Vm/"; "/")), t: .real_time} ] as $vm
  | [ $b[] | select(.name | contains("_TreeWalk/"))
      | {key: (.name | sub("_TreeWalk/"; "/")), t: .real_time} ] as $tree
  | [ $vm[] as $v | $tree[] | select(.key == $v.key)
      | {workload: $v.key, speedup: (.t / $v.t)} ] as $pairs
  | if ($pairs | length) > 0 then
      .vm = {mean_speedup: (([$pairs[].speedup] | add) / ($pairs | length)),
             points: ($pairs | length),
             pairs: $pairs}
    elif .runs.bench_vm then
      error("bench_vm ran but matched no _Vm/_TreeWalk points")
    else . end
' "$OUT.tmp" > "$OUT.tmp2"
mv "$OUT.tmp2" "$OUT.tmp"
# Durability overhead: mean Durable(no-fsync)/Plain real-time ratio on
# matched bench_durability size points (identical serial TC fixpoint; the
# durable run adds an input snapshot, one checksummed WAL frame per
# committed step, and a final snapshot + DONE marker). The fsync series is
# reported in the raw run but kept out of the ratio -- it measures the
# disk, not the encoder. Mean Recover wall time rides along so recovery
# cost is tracked in the same entry. Recorded under .durability.
jq '
  (.runs.bench_durability.benchmarks // []) as $b
  | [ $b[] | select(.name | startswith("BM_Durability_Durable/"))
      | {size: (.name | split("/")[1]), t: .real_time} ] as $durable
  | [ $b[] | select(.name | startswith("BM_Durability_Plain/"))
      | {size: (.name | split("/")[1]), t: .real_time} ] as $plain
  | [ $durable[] as $d | $plain[] | select(.size == $d.size)
      | ($d.t / .t) ] as $ratios
  | [ $b[] | select(.name | startswith("BM_Durability_Recover/"))
      | {size: (.name | split("/")[1]), recover_ms: (.real_time / 1e6),
         wal_frames: (.wal_frames // 0)} ] as $recover
  | if ($ratios | length) > 0 then
      .durability = {overhead_ratio: (($ratios | add) / ($ratios | length)),
                     target_max_ratio: 1.5,
                     points: ($ratios | length),
                     recover: $recover}
    elif .runs.bench_durability then
      error("bench_durability ran but matched no Durable/Plain points")
    else . end
' "$OUT.tmp" > "$OUT.tmp2"
mv "$OUT.tmp2" "$OUT.tmp"
# Serving tier: sustained completed-queries-per-second from the simulated
# serve loop (per client count), and the wall-clock QUERY -> terminal-PAGE
# latency of a hand-pumped wire session (p50/p99 sampled inside
# bench_serve and exported as counters). Recorded under .serve.
jq '
  (.runs.bench_serve.benchmarks // []) as $b
  | [ $b[] | select(.name | startswith("BM_Serve_Qps/"))
      | {clients: (.name | split("/")[1] | split(":")[0]),
         qps: (.qps // 0)} ] as $qps
  | [ $b[] | select(.name | startswith("BM_Serve_FirstPage/"))
      | {size: (.name | split("/")[1] | split(":")[0]),
         p50_us: (.p50_us // 0), p99_us: (.p99_us // 0)} ] as $lat
  | if ($qps | length) > 0 then
      .serve = {qps: $qps,
                peak_qps: ([$qps[].qps] | max),
                first_page: $lat}
    elif .runs.bench_serve then
      error("bench_serve ran but matched no BM_Serve_Qps points")
    else . end
' "$OUT.tmp" > "$OUT.tmp2"
mv "$OUT.tmp2" "$OUT.tmp"
mv "$OUT.tmp" "$OUT"
echo "wrote $OUT ($(jq '.runs | length' "$OUT") benchmark binaries)"
if jq -e '.governor' "$OUT" > /dev/null; then
  echo "governor overhead ratio: $(jq '.governor.overhead_ratio' "$OUT")" \
       "(target <= $(jq '.governor.target_max_ratio' "$OUT"))"
fi
if jq -e '.scheduler' "$OUT" > /dev/null; then
  echo "scheduler overhead ratio: $(jq '.scheduler.overhead_ratio' "$OUT")" \
       "(target <= $(jq '.scheduler.target_max_ratio' "$OUT"))"
fi
if jq -e '.vm' "$OUT" > /dev/null; then
  echo "vm mean speedup over tree-walker: $(jq '.vm.mean_speedup' "$OUT")" \
       "($(jq '.vm.points' "$OUT") matched points)"
fi
if jq -e '.durability' "$OUT" > /dev/null; then
  echo "durability overhead ratio: $(jq '.durability.overhead_ratio' "$OUT")" \
       "(target <= $(jq '.durability.target_max_ratio' "$OUT"))"
fi
if jq -e '.serve' "$OUT" > /dev/null; then
  echo "serve peak sustained qps: $(jq '.serve.peak_qps' "$OUT");" \
       "first-page p50/p99 us:" \
       "$(jq -c '[.serve.first_page[] | {size, p50_us, p99_us}]' "$OUT")"
fi
