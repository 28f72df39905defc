#!/usr/bin/env python3
"""Repository benchmark: builds fpdt_perfbench from source, runs one workload,
checks its outputs and prints the metrics named in BENCHMARK.json.

    python3 perfbench/run.py --workload train-longctx --seed 1 --seconds 20 --trace 0

Run from the repository root. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; with --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
Progress, the machine fingerprint and a per-layer self-time table go to
stderr. The build lives in .bench_build/, and each run's raw samples, spans
and metrics are kept under .bench_build/runs/.

With --trace 0 the set-up is also timed in SETUP_PROCESSES[workload] fresh
processes after the main one, and setup_s is the median over all of them:
every sample pays the process's one-time costs.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "runs")
PROGRAM = os.path.join(BUILD_DIR, "fpdt_perfbench")
WORKLOADS = ("train-longctx", "train-wide-zero3", "serve-evict")
# Extra set-up-only processes per --trace 0 run, so the quiet rule has more
# set-ups than stats.MIN_QUIET to choose from: a training set-up takes about
# 0.7 s from a cold start, a serving one about 0.1 s, so take more of those.
SETUP_PROCESSES = {"train-longctx": 8, "train-wide-zero3": 8, "serve-evict": 14}
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run_checked(cmd, timeout, stdout):
    """Runs cmd in its own process group; on timeout or interrupt the whole
    group (compilers under make, say) is killed and reaped before raising."""
    proc = subprocess.Popen(cmd, stdout=stdout, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return out


def build():
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_checked(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S, sys.stderr)
    # Build chatter goes to stderr: stdout's last line is the result.
    run_checked(["cmake", "--build", BUILD_DIR, "-j", jobs], BUILD_TIMEOUT_S, sys.stderr)


def fingerprint():
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {"nproc": os.cpu_count(), "git_rev": rev, "loadavg_start": os.getloadavg()[0]}


def ops_rates(ops):
    """Per-operation (tokens/s, CPU s per 1000 tokens, wall s); each op is
    [wall_s, cpu_s, tokens, steal_share]."""
    return ([o[2] / o[0] for o in ops], [1000.0 * o[1] / o[2] for o in ops],
            [o[0] for o in ops])


def quiet_ops(samples):
    """The [wall_s, cpu_s, tokens, steal_share] samples the hypervisor left
    alone, or the least stolen ones; see stats.quiet."""
    return stats.quiet(samples, [s[3] for s in samples])


def span_summary(spans):
    """Per span name: count, wall list, CPU list and summed self time
    (span time minus the time its child spans cover)."""
    child_time = {}
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out = {}
    for s in spans:
        e = out.setdefault(s["name"], {"wall": [], "cpu": [], "self": 0.0})
        e["wall"].append(s["end"] - s["start"])
        e["cpu"].append(s["cpu"])
        e["self"] += s["end"] - s["start"] - child_time.get(s["id"], 0.0)
    return out


def end_to_end(raw):
    quiet = quiet_ops(raw["ops"])
    tps, cpu_per_ktok, _ = ops_rates(quiet)
    setups = quiet_ops(raw["setups"])
    return {
        "tokens_per_s": stats.median(tps),
        "cpu_s_per_ktoken": stats.median(cpu_per_ktok),
        "hbm_peak_bytes": raw["hbm_peak_bytes"],
        "setup_s": stats.median([o[0] for o in setups]),
        # Kept in the run record: how many samples the medians rest on.
        "quiet_ops": len(quiet), "ops": len(raw["ops"]),
        "quiet_setups": len(setups), "setups": len(raw["setups"]),
    }


def per_layer(raw, spans):
    layer = raw["layer"]
    _, _, walls = ops_rates(raw["ops"])
    quiet = quiet_ops(raw["ops"])
    tps, _, _ = ops_rates(quiet)
    traced_tps, _, _ = ops_rates(quiet_ops(raw["traced_ops"]))
    workers = raw["fingerprint"]["parallel_workers"]
    m = dict(layer)
    m["host.op_p50_s"] = stats.median(walls)
    m["host.op_tail_s"], m["host.op_tail_level"] = stats.tail(walls)
    m["host.op_count"] = len(walls)
    m["host.quiet_op_count"] = len(quiet)
    m["host.parallel_efficiency"] = stats.median([o[1] / (o[0] * workers) for o in raw["ops"]])
    m["obs.trace_overhead"] = stats.median(traced_tps) / stats.median(tps) - 1.0
    m["host.steal_share"] = stats.median([o[3] for o in raw["ops"]])
    m["runtime.host_peak_bytes"] = raw["host_peak_bytes"]

    def span_median(name, field="wall"):
        entry = spans.get(name)
        return stats.median(entry[field]) if entry else 0.0

    m["core.step_wall_s"] = span_median("core.train_step_grads")
    m["core.step_cpu_s"] = span_median("core.train_step_grads", "cpu")
    m["parallel.step_wall_s"] = span_median("parallel.train_step_grads")
    m["zero.optimizer_s"] = span_median("zero.optimizer.step")
    m["nn.adam_s"] = span_median("nn.adam.step")
    m["data.sample_s"] = span_median("data.sample")
    m["serve.run_cpu_s"] = span_median("serve.engine.run", "cpu")
    ref = layer.get("reference_step_wall_s", 0.0)
    for prefix in ("core", "parallel"):
        step = m[prefix + ".step_wall_s"]
        m[prefix + ".speedup_vs_single"] = ref / step if step > 0 else 0.0

    samples = raw["samples"]
    if "serve.ttft_s" in samples:
        for key in ("ttft", "tpot"):
            values = samples["serve.%s_s" % key]
            m["serve.%s_p50_s" % key] = stats.median(values)
            m["serve.%s_tail_s" % key], m["serve.%s_tail_level" % key] = stats.tail(values)
        for key in ("evictions", "page_fetches", "oom_events", "h2d_bytes"):
            m["serve." + key] = stats.median(samples["serve." + key])
        evictions = sum(samples["serve.evictions"])
        m["serve.refetch_ratio"] = sum(samples["serve.page_fetches"]) / evictions if evictions else 0.0
    return m


def self_time_table(spans):
    rows = sorted(spans.items(), key=lambda kv: -kv[1]["self"])
    lines = ["%-28s %6s %10s %10s" % ("span", "count", "total_s", "self_s")]
    for name, e in rows:
        lines.append("%-28s %6d %10.4f %10.4f" % (name, len(e["wall"]), sum(e["wall"]), e["self"]))
    return "\n".join(lines)


def main():
    # A SIGTERM unwinds like an exception, so run_checked reaps its children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        p.error("--seconds must be positive and --seed non-negative")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["per_layer" if args.trace else "end_to_end"]

    build()
    os.makedirs(RUNS_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans_path = os.path.join(RUNS_DIR, tag + ".spans.json")
    machine = fingerprint()
    log("perfbench:", args.workload, "seed", args.seed, "machine", json.dumps(machine))

    started = time.monotonic()

    def time_left():
        return max(1.0, RUN_TIMEOUT_S - (time.monotonic() - started))

    stdout = run_checked(
        [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace), "--spans", spans_path],
        time_left(), subprocess.PIPE)
    raw = json.loads(stdout.strip().splitlines()[-1])
    machine.update(raw["fingerprint"])
    log("perfbench: fpdt_perfbench finished in %.1f s" % (time.monotonic() - started))
    if not args.trace:
        for _ in range(SETUP_PROCESSES[args.workload]):
            setup = json.loads(run_checked(
                [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
                 "--setup-only", "1"], time_left(), subprocess.PIPE).strip().splitlines()[-1])
            raw["setups"] += setup["setups"]
            raw["attempted"] += setup["attempted"]
            raw["failed"] += setup["failed"]
            raw["failures"] += setup["failures"]

    spans = {}
    if args.trace:
        with open(spans_path) as f:
            spans = span_summary(json.load(f))
        log(self_time_table(spans))
    values = per_layer(raw, spans) if args.trace else end_to_end(raw)

    metrics = {}
    for entry in listed:
        # A per-layer metric of a layer the workload does not call reads 0;
        # every end-to-end metric must have been measured.
        value = values.get(entry["name"], 0.0) if args.trace else values[entry["name"]]
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    for failure in raw["failures"]:
        log("perfbench: check failed:", failure)
    if not args.trace:
        log("perfbench: medians over %d of %d ops and %d of %d set-ups (steal share <= %g)" % (
            values["quiet_ops"], values["ops"], values["quiet_setups"], values["setups"],
            stats.QUIET_NOISE))
    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    with open(os.path.join(RUNS_DIR, tag + ".json"), "w") as f:
        json.dump({"machine": machine, "raw": raw, "values": values, "result": result}, f)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
