#!/usr/bin/env bash
# same_bits.sh — end-to-end check of the determinism contract (DESIGN.md §6).
#
#   tools/same_bits.sh <build-dir> [<work-dir>]
#
# <build-dir> is a Release build with benches and examples. Every figure,
# table, ablation and extension bench runs at ICN_BENCH_SCALE=0.15 under
# ICN_THREADS 1 and 8 on both SIMD lanes (ICN_SIMD=scalar and unset), and
# its four stdouts must be byte-identical. Every example but
# multi_probe_ingest (about five minutes a run) runs at ICN_THREADS 1 and 8,
# each run in a directory of its own, and its two stdouts must match too;
# export_dataset's two CSVs are compared as well, and stream_ingest's lines
# that start with a digit (wall-clock throughput) are dropped first. stderr
# carries progress and ports only and is not compared.
#
# Outputs stay in <work-dir> (a fresh temporary directory by default). Exits
# 1 on any difference or failed run.
set -uo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 <build-dir> [<work-dir>]" >&2
  exit 2
fi
build=$(realpath "$1")
work=${2:-$(mktemp -d)}
mkdir -p "$work"
work=$(realpath "$work")
status=0

benches=(fig01_transforms fig02_model_selection fig03_dendrogram
         fig04_rsca_heatmap fig05_shap table1_environments fig06_sankey
         fig07_cluster_envs fig08_env_clusters fig09_outdoor
         fig10_cluster_temporal fig11_service_temporal ablation_features
         ablation_linkage ablation_surrogate extension_future_services)
examples=(quickstart forecasting probe_pipeline export_dataset event_detector
          slicing_planner serve_snapshots stream_ingest)

# same <what> <file>...: every file must equal the first.
same() {
  local what=$1 first=$2 f
  shift 2
  for f in "$@"; do
    if ! cmp -s "$first" "$f"; then
      echo "DIFFERENT: $what: ${first#"$work"/} vs ${f#"$work"/}"
      status=1
    fi
  done
}

mkdir -p "$work/bench"
for b in "${benches[@]}"; do
  outs=()
  for t in 1 8; do
    for lane in scalar unset; do
      out="$work/bench/$b.t$t.$lane.txt"
      if [[ $lane == scalar ]]; then
        lane_env=(ICN_SIMD=scalar)
      else
        lane_env=(-u ICN_SIMD)
      fi
      if ! env "${lane_env[@]}" ICN_BENCH_SCALE=0.15 ICN_THREADS=$t \
          "$build/bench/$b" > "$out" 2> /dev/null; then
        echo "FAILED: $b at ICN_THREADS=$t, ICN_SIMD $lane"
        status=1
      fi
      outs+=("$out")
    done
  done
  same "$b" "${outs[@]}"
  echo "bench $b: 4 runs compared"
done

for e in "${examples[@]}"; do
  dirs=()
  for t in 1 8; do
    dir="$work/examples/$e.t$t"
    rm -rf "$dir"
    mkdir -p "$dir"
    if ! (cd "$dir" && ICN_THREADS=$t "$build/examples/$e" > stdout.txt \
            2> stderr.txt); then
      echo "FAILED: $e at ICN_THREADS=$t (see $dir/stderr.txt)"
      status=1
    fi
    if [[ $e == stream_ingest ]]; then
      grep -v '^[0-9]' "$dir/stdout.txt" > "$dir/stdout.cmp"
    else
      cp "$dir/stdout.txt" "$dir/stdout.cmp"
    fi
    dirs+=("$dir")
  done
  same "$e stdout" "${dirs[0]}/stdout.cmp" "${dirs[1]}/stdout.cmp"
  if [[ $e == export_dataset ]]; then
    for csv in icn_rsca.csv icn_traffic.csv; do
      same "$e $csv" "${dirs[0]}/$csv" "${dirs[1]}/$csv"
    done
  fi
  echo "example $e: 2 runs compared"
done

if [[ $status -ne 0 ]]; then
  echo "same_bits: outputs differ or a run failed (outputs in $work)"
else
  echo "same_bits: every output matched (outputs in $work)"
fi
exit $status
