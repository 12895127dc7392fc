#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

One workload, as the benchmark driver calls it (see ``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload join_dense --seed 1 \\
        --seconds 10 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``, one extra repetition under the layer tracer plus the
workload's diagnostics) by name and unit, checks the answers against the
workload's oracle, and ends with one JSON line.

Every workload (each in a process of its own)::

    python3 benchmarks/e2e/run.py [--seed S] [--seconds T] [--trace 1]
    python3 benchmarks/e2e/run.py --selfcheck [--seeds 10]

``--selfcheck`` does what the driver does: two sets of runs over the
same seeds; it prints both medians and the quartile spread of every
(end-to-end metric, workload), fails if a spread or a worsening exceeds
the metric's bound in ``BENCHMARK.json``, and fails if any exact count
of the traced runs differs between the sets.

The benchmark is a closed loop: one round at a time from one process
(``shard2_round`` adds two worker processes).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, HERE)

import layer_trace  # noqa: E402
import workloads  # noqa: E402
from repro.core import vector as core_vector  # noqa: E402

RESULTS = os.path.join(HERE, "results")
MIN_REPS = 9

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics that are not ``<layer>.self_s|calls|entries``.
COUNT_UNITS = {
    "error_share": "ratio",
    "sim_frames_per_result": "frames",
    "sim_bytes_per_result": "bytes",
    "sim_latency_mean_s": "sim-s",
    "sim_latency_max_s": "sim-s",
    "sim_max_node_load": "frames",
    "trace.total_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
    "bench.host_speed": "ratio",
    "bench.wall_raw_s": "s",
    "net.sim.events": "count",
    "net.sim.queue_hwm": "count",
    "net.sim.us_per_event": "us",
    "net.radio.frames": "frames",
    "net.radio.bytes": "bytes",
    "net.radio.dropped": "frames",
    "net.transport.acks": "frames",
    "net.transport.retries": "frames",
    "net.transport.dup_suppressed": "frames",
    "net.transport.retry_exhausted": "count",
    "net.routing.table_builds": "count",
    "dist.gpa.msgs_storage": "frames",
    "dist.gpa.msgs_join": "frames",
    "dist.gpa.msgs_result": "frames",
    "dist.gpa.gave_up": "count",
    "core.vector.vectorized_steps": "count",
    "core.vector.fallback_steps": "count",
    "core.vector.batch_rows": "count",
    "core.eval.probes": "count",
    "core.eval.scans": "count",
    "core.eval.derived_facts": "count",
    "net.shard.windows": "count",
    "net.shard.border_records": "count",
    "net.shard.single_process_s": "s",
    "net.shard.speedup": "ratio",
    "net.checkpoint.capture_s_per_ckpt": "s",
    "net.checkpoint.bytes_per_ckpt": "bytes",
    "obs.on_wall_ratio": "ratio",
}

#: Per-layer metrics that depend on host time; every other one is an
#: exact count that two runs of the same code and seed must reproduce.
HOST_TIMED = {
    "trace.total_s", "trace.overhead_ratio", "bench.host_speed",
    "bench.wall_raw_s", "net.sim.us_per_event",
    "net.shard.single_process_s", "net.shard.speedup",
    "net.checkpoint.capture_s_per_ckpt", "obs.on_wall_ratio",
}


def per_layer_units() -> Dict[str, str]:
    units = {}
    for layer in layer_trace.LAYERS + (layer_trace.OTHER,):
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.entries"] = "count"
    units.update(COUNT_UNITS)
    return units


def is_exact(metric: str) -> bool:
    return not metric.endswith(".self_s") and metric not in HOST_TIMED


# -- one workload, in this process ------------------------------------------------


def peak_rss_mb() -> float:
    """High-water resident set of this process or its largest child."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def check(workload, answers, expected) -> Tuple[int, int]:
    failed = attempted = 0
    for answer in answers:
        bad, rows = workload.errors(answer, expected)
        failed += bad
        attempted += rows
    return failed, attempted


def quartile_row(samples: List[float]) -> str:
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return (f"q1 {q1:.4f}  q3 {q3:.4f}  min {min(samples):.4f}  "
            f"n {len(samples)}")


def run_end_to_end(workload, seconds: float):
    """Warm up once, repeat for ``seconds``, then check every answer."""
    workloads.time_reps(workload, min_reps=1)  # imports, interner, first plans
    reps = workloads.time_reps(workload, MIN_REPS, seconds)
    rss = peak_rss_mb()  # before the oracle, which is not the system's memory
    failed, attempted = check(workload, reps.answers, workload.oracle())
    values = {
        "wall_s": statistics.median(reps.wall_s),
        "setup_s": statistics.median(reps.setup_s),
        "peak_rss_mb": rss,
    }
    print(f"{workload.name}  seed {workload.seed}  inputs "
          f"{workload.input_digest()}  (median of n, closed loop)")
    print(f"  {'wall_s':<14}{values['wall_s']:>10.4f} s    "
          f"{quartile_row(reps.wall_s)}")
    print(f"  {'setup_s':<14}{values['setup_s']:>10.4f} s    "
          f"{quartile_row(reps.setup_s)}")
    print(f"  at host speed {reps.host_speed:.2f} of the reference; unscaled "
          f"medians: wall {statistics.median(reps.wall_raw_s):.4f} s, "
          f"setup {statistics.median(reps.setup_raw_s):.4f} s")
    print(f"  {'peak_rss_mb':<14}{rss:>10.1f} MB")
    print(f"  {'error_share':<14}{failed / attempted:>10.4f} ratio  "
          f"({failed} of {attempted} rows)")
    return values, failed, attempted


def vector_stats() -> Dict[str, int]:
    # getattr: ROADMAP plans to fold VECTOR_STATS into repro.obs; the
    # benchmark must keep running (reporting 0) when it moves.
    return dict(getattr(core_vector, "VECTOR_STATS", {}))


def run_traced(workload, seconds: float):
    """Untraced reference repetitions, one repetition under the layer
    tracer, the workload's own diagnostics; then check every answer."""
    workloads.time_reps(workload, min_reps=1)
    reference = workloads.time_reps(workload, 3, seconds / 4)
    untraced_s = (statistics.median(reference.setup_raw_s)
                  + statistics.median(reference.wall_raw_s))

    def one_repetition():
        state = workload.setup(traced=True)
        return state, workload.run(state)

    tracer = layer_trace.LayerTracer()
    before = vector_stats()
    traced_state, traced_answer = tracer.run(one_repetition)
    after = vector_stats()
    keep_every = tracer.write_spans(
        os.path.join(RESULTS, f"{workload.name}.spans.jsonl")
    )

    values = dict.fromkeys(per_layer_units(), 0)
    values.update(tracer.layer_metrics())
    counts = workload.counts(traced_state)
    values.update(counts)
    for key in ("vectorized_steps", "fallback_steps", "batch_rows"):
        values[f"core.vector.{key}"] = after.get(key, 0) - before.get(key, 0)
    values["net.routing.table_builds"] = tracer.table_builds
    events = counts.get("net.sim.events", 0)
    if events:
        values["net.sim.us_per_event"] = (
            statistics.median(reference.wall_s) / events * 1e6
        )
    values["trace.total_s"] = tracer.total_s
    values["trace.overhead_ratio"] = tracer.total_s / untraced_s
    values["trace.spans"] = len(tracer.spans)
    values["bench.host_speed"] = reference.host_speed
    values["bench.wall_raw_s"] = statistics.median(reference.wall_raw_s)
    values.update(workload.diagnostics(reference))

    failed, attempted = check(
        workload, reference.answers + [traced_answer], workload.oracle()
    )
    values["error_share"] = failed / attempted

    units = per_layer_units()
    layer_sum = sum(v for k, v in values.items() if k.endswith(".self_s"))
    print(f"{workload.name}  seed {workload.seed}  inputs "
          f"{workload.input_digest()}  traced repetition: "
          f"{tracer.total_s:.3f} s = {values['trace.overhead_ratio']:.1f} x "
          f"the untraced {untraced_s:.3f} s; layer self times sum to "
          f"{layer_sum:.3f} s; {len(tracer.spans)} spans"
          + (f", 1 in {keep_every} root trees written" if keep_every > 1 else ""))
    for name, value in values.items():
        if value:
            shown = f"{value:.6f}" if isinstance(value, float) else str(value)
            share = (f"  {100 * value / tracer.total_s:5.1f} %"
                     if name.endswith(".self_s") else "")
            print(f"  {name:<36}{shown:>16} {units[name]}{share}")
    return values, failed, attempted


def run_one(args) -> int:
    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    if args.trace:
        values, failed, attempted = run_traced(workload, args.seconds)
        units = per_layer_units()
    else:
        values, failed, attempted = run_end_to_end(workload, args.seconds)
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 1 if failed else 0


# -- every workload, each in its own process ----------------------------------------


def spawn(workload: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    """Run one workload as the driver would and parse its last line."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--scale", scale],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    if done.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{workload}: exit code {done.returncode}")
    return json.loads(lines[-1])


def run_set(args, seed: int, trace: int) -> Dict[str, dict]:
    return {
        name: spawn(name, seed, args.seconds, trace, args.scale)
        for name in workloads.WORKLOADS
    }


def run_all(args) -> int:
    results = {"seed": args.seed, "seconds": args.seconds,
               "end_to_end": run_set(args, args.seed, 0)}
    if args.trace:
        results["per_layer"] = run_set(args, args.seed, 1)
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "latest.json"), "w") as f:
        json.dump(results, f, indent=1, sort_keys=True)
    wrong = [name for key in ("end_to_end", "per_layer")
             for name, result in results.get(key, {}).items()
             if not result["correct"]]
    if wrong:
        print("WRONG ANSWERS:", ", ".join(wrong))
    return 1 if wrong else 0


def spread(samples: List[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def selfcheck(args) -> int:
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    seeds = list(range(args.seed, args.seed + args.seeds))
    sets = []
    for _ in range(2):
        sets.append({
            "end_to_end": [run_set(args, seed, 0) for seed in seeds],
            "per_layer": run_set(args, seeds[0], 1),
        })
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "selfcheck.json"), "w") as f:
        json.dump({"seeds": seeds, "sets": sets}, f, indent=1, sort_keys=True)

    problems = []
    print(f"\nselfcheck over seeds {seeds[0]}..{seeds[-1]}, two sets")
    print(f"{'workload':<19}{'metric':<13}{'median 1':>10}{'median 2':>10}"
          f"{'change':>9}{'spread 1':>10}{'spread 2':>10}{'bound':>7}")
    for name in workloads.WORKLOADS:
        for metric, bound in bounds.items():
            samples = [
                [run[name]["metrics"][metric]["value"] for run in s["end_to_end"]]
                for s in sets
            ]
            first, second = (statistics.median(s) for s in samples)
            change = second / first - 1.0
            spreads = [spread(s) for s in samples]
            print(f"{name:<19}{metric:<13}{first:>10.4f}{second:>10.4f}"
                  f"{change:>+9.1%}{spreads[0]:>10.1%}{spreads[1]:>10.1%}"
                  f"{bound:>7.0%}")
            if change > bound:
                problems.append(f"{name} {metric}: second median {change:+.1%}")
            if metric != "setup_s" and max(spreads) > bound:
                problems.append(f"{name} {metric}: spread {max(spreads):.1%}")
        for s in sets:
            for run in s["end_to_end"] + [s["per_layer"]]:
                if not run[name]["correct"]:
                    problems.append(f"{name}: wrong answer")
        first, second = (s["per_layer"][name]["metrics"] for s in sets)
        differing = [m for m in first
                     if is_exact(m) and first[m]["value"] != second[m]["value"]]
        print(f"{name:<19}exact counts: "
              f"{sum(map(is_exact, first))} compared, {len(differing)} differ")
        problems += [f"{name} {m}: exact count differs" for m in differing]
    for problem in problems:
        print("FAIL", problem)
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--seeds", type=int, default=10,
                        help="seeds per set for --selfcheck")
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set and frozenset iteration order follows str hashes, and with
        # it event order inside a simulated instant: queue depths, call
        # counts and timings would differ from process to process.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    if args.selfcheck:
        return selfcheck(args)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
