#!/usr/bin/env bash
# Figures smoke lane: rebuilds every committed simulator and figure CSV in a
# temporary directory from an existing build and byte-compares each one with
# the copy in the repo root. A change that moves a figure must regenerate
# its CSV (and explain the moved cells in EXPERIMENTS.md) in the same change.
#
#   - the bench binaries behind Figs. 1/10/11/12/13/14, Tables 1/2/3, the
#     design ablations and the per-strategy weak-scaling table (Figs. 13 and
#     14 and Table 2 run the executor; Fig. 14 takes about 25 s);
#   - `fpdt topo --ranks 64..1024`, the topology-routed weak-scaling sweep.
#
#   ci/figures_smoke.sh [build_dir]   # default: build
set -euo pipefail
cd "$(dirname "$0")/.."

root="$(pwd)"
BUILD_DIR="${1:-build}"
BENCH="$root/$BUILD_DIR/bench"
FPDT="$root/$BUILD_DIR/tools/fpdt"
benches=(bench_fig01_mfu_frontier bench_fig10_op_latency bench_fig11_e2e_mfu
         bench_fig12_chunk_tradeoff bench_fig13_mem_timeline bench_fig14_convergence
         bench_table1_max_context bench_table2_footprint bench_table3_ablation
         bench_ablation_design bench_weak_scaling)
for bin in "${benches[@]/#/$BENCH/}" "$FPDT"; do
  if [[ ! -x "$bin" ]]; then
    echo "figures_smoke: $bin not built (run cmake --build $BUILD_DIR first)" >&2
    exit 2
  fi
done

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"
for b in "${benches[@]}"; do
  "$BENCH/$b" > "$b.out"
done
"$FPDT" topo --ranks 64..1024 --csv weak_scaling.csv > topo.out

fail=0
for csv in fig01_mfu_frontier.csv fig10_op_latency.csv fig11_e2e_mfu.csv \
           fig12_chunk_tradeoff.csv fig13_mem_timeline.csv fig14_convergence.csv \
           table1_max_context.csv table2_footprint.csv \
           table3_ablation.csv ablation_double_buffer.csv ablation_grad_spike.csv \
           ablation_mst.csv ablation_pcie.csv weak_scaling_strategies.csv weak_scaling.csv; do
  if ! cmp -s "$csv" "$root/$csv"; then
    echo "figures_smoke: $csv differs from the committed copy:" >&2
    diff "$root/$csv" "$csv" >&2 || true
    fail=1
  fi
done
[[ "$fail" -eq 0 ]] || exit 1
echo "figures_smoke: every committed figure and table CSV regenerates byte-identical"
