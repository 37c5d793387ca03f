"""Tests for the tracing-overhead benchmark's paired-round method.

``run_load`` is replaced by a fake that returns a scripted p95 per (mode,
round), so these tests pin the bench's mode order, its overhead arithmetic
and its ``--check-overhead`` gate without booting a server.
"""

import asyncio
import importlib.util
import json
import os
import sys

import pytest

_BENCHMARKS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)

#: Per-round p95s whose paired median (1.025) differs from both the ratio
#: of the per-mode medians (20.4 / 20 = 1.02) and the best-of ratio
#: (13 / 10 = 1.3): each alternative method would read another number.
_OFF = [10.0, 40.0, 20.0]
_ON = [13.0, 41.0, 20.4]
_SAMPLED = [9.0, 40.0, 21.0]


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, _BENCHMARKS)  # bench_obs imports bench_serve by name
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_obs", os.path.join(_BENCHMARKS, "bench_obs.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(_BENCHMARKS)
    return module


def _scripted(monkeypatch, bench, off, on, sampled):
    """Replace ``run_load`` with a fake serving the scripted p95s in round
    order per mode; returns the list the fake records each call's mode in."""
    p95s = {"tracing_off": off, "tracing_on": on, "tracing_sampled": sampled}
    modes = {(tracing, rate): key for key, tracing, rate in bench.MODES}
    calls = []

    async def fake_run_load(
        tracing, requests, concurrency, threads, trace_sample=None, warmup=0
    ):
        mode = modes[(tracing, trace_sample)]
        p95 = p95s[mode][calls.count(mode)]
        calls.append(mode)
        return {
            "p50_ms": p95 / 2,
            "p95_ms": p95,
            "p99_ms": p95 * 1.5,
            "throughput_rps": 100.0,
            "errors_5xx": 0,
        }

    monkeypatch.setattr(bench, "run_load", fake_run_load)
    return calls


class TestPairedRounds:
    def test_rounds_alternate_the_mode_order(self, bench, monkeypatch):
        calls = _scripted(monkeypatch, bench, _OFF, _ON, _SAMPLED)
        asyncio.run(bench.run_bench(8, 1, 1, 3))
        forward = ["tracing_off", "tracing_on", "tracing_sampled"]
        assert calls == forward + forward[::-1] + forward

    def test_overhead_is_the_median_of_paired_round_ratios(self, bench, monkeypatch):
        _scripted(monkeypatch, bench, _OFF, _ON, _SAMPLED)
        config, _metrics, detail = asyncio.run(bench.run_bench(8, 1, 1, 3))
        overhead = detail["overhead"]
        assert overhead["rounds_p95_ratio"] == pytest.approx([1.3, 1.025, 1.02])
        assert overhead["p95_median_ratio"] == pytest.approx(1.025)
        assert overhead["p95_median_pct"] == pytest.approx(2.5)
        assert overhead["rounds_sampled_p95_ratio"] == pytest.approx([0.9, 1.0, 1.05])
        assert overhead["sampled_p95_median_pct"] == pytest.approx(0.0)
        assert detail["tracing_off"]["p95_median_ms"] == 20.0
        assert config["rounds"] == 3

    def test_check_overhead_gates_both_tracing_modes(
        self, bench, monkeypatch, tmp_path, capsys
    ):
        out = tmp_path / "obs.json"
        argv = ["--rounds", "3", "--out", str(out), "--check-overhead", "5"]
        _scripted(monkeypatch, bench, _OFF, _ON, _SAMPLED)
        assert bench.main(argv) == 0  # +2.5% and 0.0%: inside the 5% budget
        report = json.loads(out.read_text())
        assert report["detail"]["overhead"]["p95_median_pct"] == 2.5
        capsys.readouterr()
        # Sampled tracing 10% slower in every round: only its gate trips.
        _scripted(monkeypatch, bench, _OFF, _ON, [p95 * 1.1 for p95 in _OFF])
        assert bench.main(argv) == 1
        err = capsys.readouterr().err
        assert "FAIL: tracing+sampling" in err
        assert "FAIL: tracing median" not in err
