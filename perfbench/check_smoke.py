"""Smoke check of the benchmark end to end: a few seconds per workload.

Run from the root of a checkout::

    python3 -m pytest perfbench/check_smoke.py

Each workload runs for two seconds in both modes; every metric named in
``BENCHMARK.json`` must print with its unit, every answer must verify and
``success_ratio`` must be 1.0.  Not collected by the default test run
(it starts about twenty program processes).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(cwd: str, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    specs = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for metric in specs:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    if trace == 0:
        assert result["metrics"]["success_ratio"]["value"] == 1.0
        assert all(result["metrics"][m["name"]]["value"] != 0 for m in specs)


def test_fails_without_the_program():
    bare = os.path.join(ROOT, ".bench_build", "perfbench", "no-program")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            os.path.join(ROOT, "perfbench"),
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        out = _run(bare, SPEC["workloads"][0]["name"], 0)
        assert out.returncode != 0
        assert '"metrics"' not in out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
