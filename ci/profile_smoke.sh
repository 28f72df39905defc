#!/usr/bin/env bash
# Profiler smoke lane: runs `fpdt profile` on an existing build, validates
# both emitted documents are real JSON, and asserts the trace/metrics carry
# the content the observability layer promises:
#   - trace.json has events from all four built-in categories (stream,
#     chunk, comm, memory) on at least two rank processes;
#   - metrics.json's overlap ratio equals hidden/(h2d+d2h) from the same
#     step stats, and exposed transfer time stays under a sanity ceiling;
#   - a 1-step run of each baseline strategy (ulysses, megatron-sp, ring)
#     writes two valid JSON documents;
#   - two runs of Megatron-SP + ZeRO-3 on 4 ranks, whose rank bodies and
#     per-rank Adam run concurrently on the pool workers, write
#     byte-identical trace.json documents;
#   - every strategy (fpdt, ulysses, megatron-sp, ring) reports the same
#     virtual step traced and with --no-trace, and each step covers its
#     compute, not just the optimizer span;
#   - the FPDT executor on the simd backend at 512-row attention chunks,
#     where rank bodies run chunk attention as KV-head-group tiles on idle
#     workers, writes byte-identical trace.json documents in two runs and
#     the same virtual step traced and untraced.
#
#   ci/profile_smoke.sh [build_dir]   # default: build
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
FPDT="$(pwd)/$BUILD_DIR/tools/fpdt"
if [[ ! -x "$FPDT" ]]; then
  echo "profile_smoke: $FPDT not built (run cmake --build $BUILD_DIR first)" >&2
  exit 2
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

(cd "$workdir" && "$FPDT" profile --steps 2 --gpus 2 --chunks 4 --chunk-tokens 64)

python3 -m json.tool "$workdir/trace.json" > /dev/null
python3 -m json.tool "$workdir/metrics.json" > /dev/null
echo "profile_smoke: both documents are valid JSON"

python3 - "$workdir" <<'EOF'
import json, sys

workdir = sys.argv[1]
trace = json.load(open(f"{workdir}/trace.json"))
events = trace["traceEvents"]
cats = {e["cat"] for e in events if "cat" in e}
ranks = {e["pid"] for e in events if isinstance(e.get("pid"), int) and 0 <= e["pid"] < 9999}
missing = {"stream", "chunk", "comm", "memory"} - cats
assert not missing, f"trace missing categories: {missing}"
assert len(ranks) >= 2, f"trace covers only ranks {ranks}"

metrics = json.load(open(f"{workdir}/metrics.json"))
steps = metrics["step_stats"]
assert len(steps) == 2, f"expected 2 step stats, got {len(steps)}"
for s in steps:
    transfer = s["h2d_busy_s"] + s["d2h_busy_s"]
    assert transfer > 0, "no transfer time measured"
    want = s["hidden_transfer_s"] / transfer
    assert abs(s["overlap_ratio"] - want) < 1e-9, \
        f"overlap_ratio {s['overlap_ratio']} != hidden/transfer {want}"
    # Exposed transfer must not dominate: the double-buffered pipeline
    # keeps it below the step's total transfer time trivially, and below
    # 2x the virtual makespan as a gross-regression tripwire.
    assert s["exposed_transfer_s"] <= transfer + 1e-12, "exposed exceeds transfer busy"
    assert s["exposed_transfer_s"] < 2.0 * s["virtual_step_s"], \
        f"exposed transfer {s['exposed_transfer_s']}s vs step {s['virtual_step_s']}s"
    assert s["tokens_per_s"] > 0, "virtual throughput is zero"
gauges = {(m["name"], m.get("labels", "")): m for m in metrics["registry"]["metrics"]}
g = gauges[("overlap.ratio", "rank=0")]["value"]
assert abs(g - steps[-1]["overlap_ratio"]) < 1e-9, \
    f"registry overlap gauge {g} disagrees with step stats {steps[-1]['overlap_ratio']}"
print("profile_smoke: categories, ranks, and overlap invariants all hold")
EOF

for strategy in ulysses megatron-sp ring; do
  out="$workdir/$strategy"
  mkdir -p "$out"
  (cd "$out" && "$FPDT" profile --strategy "$strategy" --steps 1 --gpus 2 --chunks 4 \
    --chunk-tokens 64 > /dev/null)
  python3 -m json.tool "$out/trace.json" > /dev/null
  python3 -m json.tool "$out/metrics.json" > /dev/null
done
echo "profile_smoke: ulysses, megatron-sp and ring documents are valid JSON"

for run in 1 2; do
  out="$workdir/msp-zero3-$run"
  mkdir -p "$out"
  (cd "$out" && "$FPDT" profile --strategy megatron-sp --zero-stage 3 --gpus 4 --steps 1 \
    > /dev/null)
done
cmp "$workdir/msp-zero3-1/trace.json" "$workdir/msp-zero3-2/trace.json"
echo "profile_smoke: rank-parallel megatron-sp + zero-3 traces are byte-identical"

for strategy in fpdt ulysses megatron-sp ring; do
  for mode in traced untraced; do
    out="$workdir/clock-$strategy-$mode"
    mkdir -p "$out"
    flags=()
    [[ "$mode" == untraced ]] && flags=(--no-trace)
    (cd "$out" && "$FPDT" profile --strategy "$strategy" --steps 2 --gpus 2 --chunks 4 \
      --chunk-tokens 64 "${flags[@]}" > /dev/null)
  done
done
python3 - "$workdir" <<'EOF'
import json, sys

workdir = sys.argv[1]
for strategy in ("fpdt", "ulysses", "megatron-sp", "ring"):
    runs = {mode: json.load(open(f"{workdir}/clock-{strategy}-{mode}/metrics.json"))["step_stats"]
            for mode in ("traced", "untraced")}
    for traced, untraced in zip(runs["traced"], runs["untraced"]):
        assert traced["virtual_step_s"] == untraced["virtual_step_s"], \
            f"{strategy}: traced step {traced['virtual_step_s']}s != untraced {untraced['virtual_step_s']}s"
        optimizer = untraced["phase_s"]["optimizer"]
        assert untraced["virtual_step_s"] > 2 * optimizer, \
            f"{strategy}: step {untraced['virtual_step_s']}s is little more than its optimizer span {optimizer}s"
        for phase in ("qkv", "attention", "ffn", "embed", "loss"):
            assert untraced["phase_s"].get(phase, 0) > 0, f"{strategy}: no {phase} time on the clock"
print("profile_smoke: every strategy's virtual step is trace-invariant and covers its compute")
EOF

for run in 1 2 untraced; do
  out="$workdir/fpdt-simd-$run"
  mkdir -p "$out"
  flags=()
  [[ "$run" == untraced ]] && flags=(--no-trace)
  (cd "$out" && "$FPDT" profile --backend simd --gpus 2 --chunks 4 --chunk-tokens 256 \
    --steps 1 "${flags[@]}" > /dev/null)
done
cmp "$workdir/fpdt-simd-1/trace.json" "$workdir/fpdt-simd-2/trace.json"
python3 - "$workdir" <<'EOF'
import json, sys

workdir = sys.argv[1]
traced, untraced = (json.load(open(f"{workdir}/fpdt-simd-{run}/metrics.json"))["step_stats"]
                    for run in ("1", "untraced"))
for t, u in zip(traced, untraced):
    assert t["virtual_step_s"] == u["virtual_step_s"], \
        f"fpdt/simd: traced step {t['virtual_step_s']}s != untraced {u['virtual_step_s']}s"
print("profile_smoke: fpdt on simd writes byte-identical traces and a trace-invariant virtual step")
EOF
