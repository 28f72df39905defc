#!/usr/bin/env bash
# Chaos smoke lane: runs `fpdt chaos` — deterministic fault injection over a
# real multi-step training run — on an existing build and asserts the
# resilience contract:
#   - the run survives every step (completed N/N);
#   - faults were actually injected and retried (the spec is not a no-op);
#   - every injection was recovered (recovered == injected);
#   - the final loss matches a fault-free twin bitwise (transient faults are
#     invisible to training math).
#
#   ci/chaos_smoke.sh [build_dir] [zero_stage]   # defaults: build, 0
#
# A second argument runs the whole contract under that ZeRO stage (the
# sharded optimizer + sharded FPDTZR01 snapshots are then on the fault path).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
ZERO_STAGE="${2:-0}"
FPDT="$(pwd)/$BUILD_DIR/tools/fpdt"
if [[ ! -x "$FPDT" ]]; then
  echo "chaos_smoke: $FPDT not built (run cmake --build $BUILD_DIR first)" >&2
  exit 2
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

STEPS=4
out="$workdir/chaos.out"
(cd "$workdir" && "$FPDT" chaos \
    --spec 'h2d:p=0.05;d2h:p=0.05;collective:step=2' --steps "$STEPS" \
    --zero-stage "$ZERO_STAGE") | tee "$out"

grep -q "chaos: completed $STEPS/$STEPS steps" "$out" \
  || { echo "chaos_smoke: run did not complete all $STEPS steps" >&2; exit 1; }
grep -q "chaos: final loss .* match bitwise" "$out" \
  || { echo "chaos_smoke: faulted loss does not match the fault-free twin" >&2; exit 1; }

python3 - "$out" <<'EOF'
import re, sys

stats_line = next(l for l in open(sys.argv[1]) if l.startswith("chaos: injected"))
m = re.match(r"chaos: injected (\d+) retried (\d+) degraded (\d+) recovered (\d+)", stats_line)
assert m, f"unparseable stats line: {stats_line!r}"
injected, retried, degraded, recovered = map(int, m.groups())
assert injected > 0, "spec injected nothing — the chaos lane is a no-op"
assert retried > 0, "no retries recorded despite transient-fault rules"
assert recovered == injected, f"unrecovered faults: injected {injected}, recovered {recovered}"
print(f"chaos_smoke: survived {injected} injected faults "
      f"({retried} retried, {degraded} degraded), all recovered, loss bitwise-clean")
EOF

# Rank-loss scenario: a lost rank triggers the elastic reshard path, so the
# surviving world is smaller and losses are verified approximately against the
# clean twin (fpdt elastic / ci/elastic_smoke.sh owns the bitwise contract).
lost="$workdir/chaos_ranklost.out"
(cd "$workdir" && "$FPDT" chaos \
    --spec 'ranklost:step=2,rank=1' --steps "$STEPS" \
    --zero-stage "$ZERO_STAGE") | tee "$lost"
grep -q "chaos: completed $STEPS/$STEPS steps" "$lost" \
  || { echo "chaos_smoke: ranklost run did not complete all $STEPS steps" >&2; exit 1; }
grep -q "chaos: rank loss re-sharded to a smaller world" "$lost" \
  || { echo "chaos_smoke: rank loss did not engage the elastic reshard path" >&2; exit 1; }
grep -q "chaos: final loss .* match approx" "$lost" \
  || { echo "chaos_smoke: post-reshard loss does not approximately match the clean twin" >&2; exit 1; }

# No checkpoint litter: the chaos driver removes its snapshot files.
leftover="$(ls "$workdir" | grep -Ev '^chaos(_ranklost)?\.out$' || true)"
if [[ -n "$leftover" ]]; then
  echo "chaos_smoke: leftover files in workdir: $leftover" >&2
  exit 1
fi
