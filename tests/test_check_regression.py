"""Tests for the benchmark regression gate and the committed baselines.

The gate has one rule: every baseline metric must reappear in the fresh
report with a positive number, and its regression ratio may not exceed
``1 + bound``, with the direction and bound read from the baseline.  Every
committed ``BENCH_*.json`` must carry the one report shape that rule reads.
"""

import importlib.util
import json
import os
import statistics
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_BENCHMARKS = os.path.join(_ROOT, "benchmarks")


def _module(name):
    sys.path.insert(0, _BENCHMARKS)  # benches import their siblings by name
    try:
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(_BENCHMARKS, f"{name}.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(_BENCHMARKS)
    return module


gate = _module("check_regression")
GATES = _module("gates").GATES


def _report(*metrics):
    return {"metrics": [gate.metric(*entry) for entry in metrics]}


#: p95 may grow to 2x (bound 1.0); throughput may fall to a third (bound 2.0).
P95 = ("p95_ms", "ms", "lower", 1.0, 10.0)
RPS = ("throughput_rps", "1/s", "higher", 2.0, 300.0)
BASELINE = _report(P95, RPS)


class TestOneRule:
    def test_identical_reports_pass(self):
        lines, failures = gate.compare(BASELINE, BASELINE)
        assert not failures
        assert [line.split()[0] for line in lines] == ["ok", "ok"]

    @pytest.mark.parametrize("epsilon, passes", [(-1e-6, True), (1e-6, False)])
    def test_lower_is_better_limit_is_one_plus_bound(self, epsilon, passes):
        fresh = _report(P95[:4] + (10.0 * (2.0 + epsilon),), RPS)
        _lines, failures = gate.compare(BASELINE, fresh)
        assert (not failures) is passes
        if not passes:
            assert failures[0].startswith("p95_ms regressed")

    @pytest.mark.parametrize("epsilon, passes", [(-1e-6, True), (1e-6, False)])
    def test_higher_is_better_limit_is_one_plus_bound(self, epsilon, passes):
        fresh = _report(P95, RPS[:4] + (300.0 / (3.0 + epsilon),))
        _lines, failures = gate.compare(BASELINE, fresh)
        assert (not failures) is passes
        if not passes:
            assert failures[0].startswith("throughput_rps regressed")

    def test_improvements_pass(self):
        fresh = _report(P95[:4] + (1.0,), RPS[:4] + (3000.0,))
        assert gate.compare(BASELINE, fresh)[1] == []

    def test_a_baseline_metric_missing_from_fresh_fails(self):
        _lines, failures = gate.compare(BASELINE, _report(RPS))
        assert len(failures) == 1 and failures[0].startswith("p95_ms:")
        assert gate.compare(BASELINE, {"schema": "v2"})[1]

    @pytest.mark.parametrize("value", ["fast", True, None, 0, -1.0])
    def test_a_non_numeric_or_non_positive_value_fails(self, value):
        _lines, failures = gate.compare(BASELINE, _report(P95[:4] + (value,), RPS))
        assert len(failures) == 1 and failures[0].startswith("p95_ms:")
        _lines, failures = gate.compare(_report(P95[:4] + (value,), RPS), BASELINE)
        assert len(failures) == 1 and failures[0].startswith("p95_ms:")

    def test_a_baseline_without_metrics_fails(self):
        assert gate.compare({"metrics": []}, BASELINE)[1]

    def test_cli_takes_two_paths_and_exits_1_on_a_regression(self, tmp_path):
        base = tmp_path / "base.json"
        fresh = tmp_path / "fresh.json"
        base.write_text(json.dumps(BASELINE))
        fresh.write_text(json.dumps(BASELINE))
        assert gate.main([str(base), str(fresh)]) == 0
        fresh.write_text(json.dumps(_report(P95[:4] + (25.0,), RPS)))
        assert gate.main([str(base), str(fresh)]) == 1
        with pytest.raises(SystemExit):
            gate.main(["--kind", "serve", str(base), str(fresh)])


def _committed(name):
    with open(os.path.join(_ROOT, f"BENCH_{name}.json"), encoding="utf-8") as handle:
        return json.load(handle)


#: The metrics each baseline gates; the shard and scenarios baselines gate
#: each query's best speedup and its wall-clock at every shard count.
FIXED_METRICS = {
    "serve": {"throughput_rps", "p95_ms"},
    "obs": {
        "tracing_off.p95_median_ms",
        "tracing_on.p95_median_ms",
        "tracing_sampled.p95_median_ms",
        "overhead.p95_median_ratio",
    },
    "incremental": {"point_write.speedup_vs_full", "point_write.cached_s_median"},
    "control": {"cost_predictive.cheap.success_rate", "cost_predictive.cheap.p95_ms"},
    "store": set(),
}

#: Every gated bound is 1.0 (at most 2x worse) but the scenarios' 2.0 (3x).
BOUNDS = {"scenarios": 2.0}


def _gated(name, report):
    if name not in ("shard", "scenarios"):
        return FIXED_METRICS[name]
    names = set()
    for query in report["detail"]["queries"]:
        names.add(f"{query}.best_speedup")
        for shards in report["config"]["shards"]:
            names.add(f"{query}.sharded[{shards}].seconds")
    return names


class TestCommittedBaselines:
    @pytest.mark.parametrize("name", sorted(GATES))
    def test_baseline_has_the_one_shape(self, name):
        report = _committed(name)
        assert set(report) == {"benchmark", "host", "config", "metrics", "detail"}
        assert report["benchmark"] == name
        host = report["host"]
        assert host["nproc"] >= 1
        assert host["python"] and host["commit"] and host["source_sha256"]
        names = [entry["name"] for entry in report["metrics"]]
        assert len(names) == len(set(names))
        for entry in report["metrics"]:
            assert entry["name"] and entry["unit"]
            assert entry["better"] in ("lower", "higher")
            assert entry["bound"] >= 0
            value = entry["value"]
            assert isinstance(value, (int, float)) and not isinstance(value, bool)
            assert value > 0

    def test_baselines_come_from_one_tree(self):
        digests = {_committed(name)["host"]["source_sha256"] for name in GATES}
        assert len(digests) == 1

    @pytest.mark.parametrize("name", sorted(GATES))
    def test_baseline_gates_its_metrics_with_their_bound(self, name):
        report = _committed(name)
        assert {entry["name"] for entry in report["metrics"]} == _gated(name, report)
        for entry in report["metrics"]:
            assert entry["bound"] == BOUNDS.get(name, 1.0)

    @pytest.mark.parametrize("name", sorted(GATES))
    def test_baseline_was_measured_with_the_settings_ci_runs(self, name):
        bench = _module(f"bench_{name}")
        args = vars(bench.build_parser().parse_args(GATES[name].split()))
        config = _committed(name)["config"]
        for setting, value in args.items():
            # every option but the output path and the contracts is a setting
            if setting != "out" and not setting.startswith(("check_", "min_")):
                assert config[setting] == value, setting

    @pytest.mark.parametrize("name", sorted(GATES))
    def test_ci_runs_the_bench_with_the_shared_settings_and_compares(self, name):
        path = os.path.join(_ROOT, ".github", "workflows", "ci.yml")
        with open(path, encoding="utf-8") as handle:
            workflow = handle.read()
        assert f"python benchmarks/gates.py {name}\n" in workflow
        compared = f"check_regression.py BENCH_{name}.json BENCH_{name}.fresh.json"
        assert (compared in workflow) is bool(_committed(name)["metrics"])

    def test_obs_baseline_gates_the_paired_median_ratio(self):
        report = _committed("obs")
        overhead = report["detail"]["overhead"]
        assert overhead["p95_median_ratio"] == pytest.approx(
            statistics.median(overhead["rounds_p95_ratio"]), abs=1e-4
        )
        assert len(overhead["rounds_p95_ratio"]) == report["config"]["rounds"]
        gated = {entry["name"]: entry["value"] for entry in report["metrics"]}
        assert gated["overhead.p95_median_ratio"] == overhead["p95_median_ratio"]
