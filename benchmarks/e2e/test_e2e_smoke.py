"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Not part of the tier-1 ``testpaths``: it checks the benchmark, not the
system.  Every workload runs at ``--scale smoke``.
"""

import json
import os
import subprocess
import sys

import pytest

import run
import workloads

SEED = 12
NAMES = sorted(workloads.WORKLOADS)


def traced_run(name):
    return run.run_traced(workloads.WORKLOADS[name](SEED, "smoke"), seconds=0)


@pytest.fixture(scope="module", params=NAMES)
def traced(request):
    return (request.param,) + traced_run(request.param)


def test_benchmark_json_lists_what_the_benchmark_emits():
    with open(os.path.join(run.REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == [os.path.relpath(run.HERE, run.REPO)]


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_and_answers(name):
    workload = workloads.WORKLOADS[name](SEED, "smoke")
    values, failed, attempted = run.run_end_to_end(workload, seconds=0)
    assert set(values) == set(run.END_TO_END)
    assert all(value > 0 for value in values.values())
    assert failed == 0 and attempted > 0


def test_traced_layers_sum_to_the_traced_total(traced):
    name, values, failed, _attempted = traced
    assert set(values) == set(run.per_layer_units())
    assert failed == 0 and values["error_share"] == 0
    layer_sum = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert layer_sum == pytest.approx(values["trace.total_s"], rel=0.02)
    assert os.path.exists(os.path.join(run.RESULTS, f"{name}.spans.jsonl"))


def test_same_seed_same_counts_other_seed_other_inputs(traced):
    name, first, _, _ = traced
    second, _, _ = traced_run(name)
    exact = [metric for metric in first if run.is_exact(metric)]
    assert {m: first[m] for m in exact} == {m: second[m] for m in exact}
    cls = workloads.WORKLOADS[name]
    assert (cls(SEED, "smoke").input_digest()
            != cls(SEED + 1, "smoke").input_digest())


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_contract_last_line(trace):
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         "join_dense", "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--scale", "smoke"],
        stdout=subprocess.PIPE, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = run.per_layer_units() if trace else run.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
