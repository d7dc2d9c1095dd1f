"""Smoke test of the benchmark itself: one cycle of every workload, both
kinds of run, checking that each name in ``BENCHMARK.json`` comes back
with its unit and a finite value.

Lives beside the benchmark, so tier-1 (``testpaths = ["tests"]``)
neither collects nor slows; run it with
``python -m pytest benchmarks/e2e/test_e2e_smoke.py``.
"""

import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def smoke_run(workload: str, trace: int):
    done = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    """All eight smoke runs, two at a time (they are one core each)."""
    jobs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(jobs, pool.map(lambda job: smoke_run(*job), jobs)))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_reported(results, workload, trace, section):
    result = results[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert list(result["metrics"]) == list(declared)
    for name, unit in declared.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit, name
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
        if section == "end_to_end":
            assert metric["value"] > 0, name


def test_benchmark_json_mirrors_the_code():
    sys.path.insert(0, ROOT)
    from benchmarks.e2e import metrics, run

    assert WORKLOADS == list(run.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
    ] == metrics.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == metrics.PER_LAYER
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
