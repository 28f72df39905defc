#!/usr/bin/env bash
# Sanitizer CI lane: builds the tree under TSan and/or ASan and runs the
# concurrency- and allocator-sensitive test suites.
#
#   ci/sanitize.sh            # both sanitizers
#   ci/sanitize.sh thread     # just TSan
#   ci/sanitize.sh address    # just ASan (+UBSan)
#
# Each sanitizer gets its own build tree (build-tsan/, build-asan/) so the
# lanes cache independently and never pollute the default build/.
set -euo pipefail
cd "$(dirname "$0")/.."

run_lane() {
  local san="$1"
  local dir
  if [[ "$san" == "thread" ]]; then dir=build-tsan; else dir=build-asan; fi
  echo "=== sanitizer lane: $san ($dir) ==="
  cmake -B "$dir" -S . -DFPDT_SANITIZE="$san" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$dir" -j
  # The suites that exercise shared state across the emulated ranks: the
  # stream/prefetch engine, the thread pool, the chunked executors (and
  # the FPDT schedule-agreement sweep over every flag), the baseline
  # executors and the one training loop every strategy runs through, and
  # the tracer/metrics layer that all of them publish into
  # concurrently. The thread pool's tile forks (ThreadPoolTest.*Tile*) run
  # on helpers shared by concurrent callers.
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)" \
    -R 'Stream|Prefetch|ThreadPool|Tile|MemoryPool|ChunkStore|Fpdt|ScheduleAgreement|Baseline|MegatronSp|Strategy|BatchTraining|Tracer|Metrics|Profiler|Timeline|Fault|Chaos|Resilient|Zero|RankOrdinal|SearchSpace|Planner|PruneSoundness|Tune|Runner|Elastic|Reshard|Collectives|GroupView|Serve|Topology|TopoModel|HierDifferential|Hierarchical|Grid2D'
  # Kernel-backend matrix: the math-kernel suites must hold under both the
  # scalar reference and the simd backend. The simd lane is the one that can
  # race — its GEMM/attention forks rows across the thread pool — so TSan
  # over these suites with FPDT_KERNEL_BACKEND=simd is the real target;
  # scalar pins the reference semantics under the same sanitizer. Online
  # attention also splits into KV-head-group tiles on packed per-thread
  # scratch (SimdDifferentialTest.KvHeadGroupTilesMatchWholeCall runs them
  # from two concurrent rank bodies).
  for kb in scalar simd; do
    echo "--- kernel lane: FPDT_KERNEL_BACKEND=$kb ---"
    FPDT_KERNEL_BACKEND="$kb" ctest --test-dir "$dir" --output-on-failure -j "$(nproc)" \
      -R 'Kernel|Gemm|Simd|KvHeadGroup|ScalarBitIdentity|ActiveBackend|Attention|Tensor|Softmax|Norm|Activation'
    # The elastic churn sweep re-runs full training twice per case (run +
    # bitwise twin), so its math goes through whichever backend is active —
    # the reshard/resume contract must hold under both.
    FPDT_KERNEL_BACKEND="$kb" ctest --test-dir "$dir" --output-on-failure -j "$(nproc)" \
      -R 'Elastic'
  done
  # ZeRO stage matrix: one footprint run per stage exercises the sharded
  # residency charges, the gather/scatter collectives and the sharded
  # optimizer under the sanitizer, and asserts the measured-vs-modeled
  # deltas (and cross-stage loss bit-identity) end to end.
  for stage in 0 1 2 3; do
    "$dir/tools/fpdt" footprint --gpus 2 --chunks 2 --chunk-tokens 32 --stage "$stage" \
      > /dev/null
  done
  # End-to-end profiler smoke under the sanitizer: traces a 2-step run and
  # checks the emitted JSON documents and overlap invariants, then one step
  # of each baseline strategy.
  ci/profile_smoke.sh "$dir"
  # Fault-injection smoke under the sanitizer: survives a seeded chaos run
  # with all faults recovered and the final loss bitwise-clean. Races in the
  # injector's locked draw paths or the retry ladders show up here.
  ci/chaos_smoke.sh "$dir"
  # Same contract with the ZeRO-3 sharded optimizer and FPDTZR01 snapshots
  # on the fault path.
  ci/chaos_smoke.sh "$dir" 3
  # Elastic-membership smoke under the sanitizer: a seeded ZeRO-3 rank loss
  # must quiesce, re-plan, re-shard the moment shards and resume bitwise
  # identical to a fresh reduced-world run, with a deterministic transcript
  # and the recovery inside its wall-clock budget.
  ci/elastic_smoke.sh "$dir"
  # Autotuner smoke under the sanitizer: plans, prunes, executes top-K real
  # profiled steps and re-tunes against the warm result cache, asserting a
  # winner that measurably fits the budget and byte-identical cold/warm
  # reports.
  ci/tune_smoke.sh "$dir"
  # Perf-snapshot smoke under the sanitizer: the workmeter's accounting
  # invariants (0 < MFU <= 1, scalar/simd bit-identical FLOP counts) and the
  # deterministic-field baseline diff must survive instrumented builds —
  # only host clocks are allowed to move.
  ci/bench_smoke.sh "$dir"
  # Serving-engine smoke under the sanitizer: deterministic 64-session
  # virtual workload, executed chunked-prefill differential verify, and the
  # fault-injected KV-offload lane, under both kernel backends.
  ci/serve_smoke.sh "$dir"
  # Topology smoke under the sanitizer: flat-vs-hierarchical collective
  # bitwise differential, 2D-vs-1D trainer loss bit-identity under both
  # kernel backends, the weak-scaling CSV shape contract, and a rank loss
  # inside the 2D grid with the elastic twin intact. The hierarchical group
  # runs its phase subgroups concurrently from parallel_for_ranks callers,
  # so its link-ledger locking is exactly what TSan is for.
  ci/topo_smoke.sh "$dir"
  # Figures smoke under the sanitizer: every committed simulator and figure
  # CSV (Figs. 1/10/11/12, Tables 1/2/3, ablations, both weak-scaling
  # sweeps) regenerates byte-identical to the repo copy.
  ci/figures_smoke.sh "$dir"
}

lanes=("$@")
[[ ${#lanes[@]} -eq 0 ]] && lanes=(thread address)
for san in "${lanes[@]}"; do
  run_lane "$san"
done
