"""Tests for the benchmark regression gate's schema-evolution tolerance.

A fresh ``BENCH_*.json`` that dropped or reshaped a key the committed
baseline still has must skip-with-warning, not raise or hard-fail CI.
"""

import copy
import importlib.util
import json
import os
import statistics

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SCRIPT = os.path.join(_ROOT, "benchmarks", "check_regression.py")


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_regression", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASELINE_SHARD = {
    "queries": {
        "q1": {
            "best_speedup": 2.0,
            "sharded": {"2": {"seconds": 0.5}, "4": {"seconds": 0.25}},
        },
        "q2": {"best_speedup": 3.0, "sharded": {"2": {"seconds": 0.1}}},
    }
}


class TestShardMetricsTolerance:
    def test_identical_reports_compare_cleanly(self, gate):
        lines, failures = gate.compare("shard", BASELINE_SHARD, BASELINE_SHARD, 2.0)
        assert not failures
        assert all("ok" in line for line in lines)

    def test_fresh_missing_key_is_skipped_not_keyerror(self, gate):
        fresh = {
            "queries": {
                "q1": {"sharded": {"4": {"seconds": 0.3}}},  # best_speedup gone
                "q2": {"best_speedup": 3.1},  # sharded table gone
            }
        }
        lines, failures = gate.compare("shard", BASELINE_SHARD, fresh, 2.0)
        assert not failures
        assert any("skip" in line for line in lines)

    def test_reshaped_entries_do_not_raise(self, gate):
        fresh = {
            "queries": {
                "q1": ["not", "an", "object"],
                "q2": {"best_speedup": 3.0, "sharded": "reshaped"},
            }
        }
        lines, failures = gate.compare("shard", BASELINE_SHARD, fresh, 2.0)
        assert not failures
        baseline_bad = {
            "queries": {
                "q1": {"best_speedup": 2.0, "sharded": {"2": "weird"}},
                "q2": True,
            }
        }
        lines, failures = gate.compare("shard", baseline_bad, BASELINE_SHARD, 2.0)
        assert not failures

    def test_queries_table_of_wrong_type_yields_no_metrics(self, gate):
        assert gate._shard_metrics({"queries": "gone"}, BASELINE_SHARD) == []
        assert gate._shard_metrics(BASELINE_SHARD, {}) == []

    def test_real_regression_still_fails(self, gate):
        fresh = {
            "queries": {
                "q1": {
                    "best_speedup": 0.5,  # 4x worse than the 2.0 baseline
                    "sharded": {"2": {"seconds": 0.5}, "4": {"seconds": 0.25}},
                },
                "q2": {"best_speedup": 3.0, "sharded": {"2": {"seconds": 0.1}}},
            }
        }
        _lines, failures = gate.compare("shard", BASELINE_SHARD, fresh, 2.0)
        assert failures and "q1.best_speedup" in failures[0]

    def test_scenarios_kind_shares_the_shard_comparator(self, gate):
        """``--kind scenarios`` gates the (scenario, aggregate) matrix
        through the same per-query comparator as ``shard``."""
        baseline = {
            "queries": {
                "near_total_inconsistency.AVG": {
                    "best_speedup": 120.0,
                    "sharded": {"2": {"seconds": 0.004}, "4": {"seconds": 0.006}},
                }
            }
        }
        lines, failures = gate.compare("scenarios", baseline, baseline, 3.0)
        assert not failures
        assert any(
            "near_total_inconsistency.AVG.best_speedup" in line for line in lines
        )
        regressed = {
            "queries": {
                "near_total_inconsistency.AVG": {
                    "best_speedup": 10.0,  # 12x worse
                    "sharded": {"2": {"seconds": 0.004}, "4": {"seconds": 0.006}},
                }
            }
        }
        _lines, failures = gate.compare("scenarios", baseline, regressed, 3.0)
        assert failures and "best_speedup" in failures[0]

    def test_incremental_kind_gates_speedup_and_latency(self, gate):
        baseline = {
            "point_write": {"speedup_vs_full": 8.0, "cached_s_median": 0.8}
        }
        lines, failures = gate.compare("incremental", baseline, baseline, 2.0)
        assert not failures
        assert any("point_write.speedup_vs_full" in line for line in lines)
        regressed = {
            "point_write": {"speedup_vs_full": 1.5, "cached_s_median": 0.9}
        }
        _lines, failures = gate.compare("incremental", baseline, regressed, 2.0)
        assert failures and "speedup_vs_full" in failures[0]
        reshaped = {"point_write": "gone"}
        lines, failures = gate.compare("incremental", baseline, reshaped, 2.0)
        assert not failures
        assert all("skip" in line for line in lines)

    def test_non_numeric_values_are_skipped(self, gate):
        baseline = {"throughput_rps": 100.0, "p95_ms": 5.0}
        fresh = {"throughput_rps": "fast", "p95_ms": True}
        lines, failures = gate.compare("serve", baseline, fresh, 2.0)
        assert not failures
        assert all("skip" in line for line in lines)


class TestGateCli:
    def _write(self, tmp_path, name, payload):
        import json

        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_no_comparable_metrics_warns_and_exits_zero(self, gate, tmp_path, capsys):
        baseline = self._write(tmp_path, "base.json", BASELINE_SHARD)
        fresh = self._write(tmp_path, "fresh.json", {"schema": "v2"})
        assert (
            gate.main(["--kind", "shard", "--baseline", baseline, "--fresh", fresh])
            == 0
        )
        assert "no comparable metrics" in capsys.readouterr().err

    def test_all_skipped_metrics_also_warn_and_exit_zero(self, gate, tmp_path, capsys):
        """Metrics that exist but are all skipped must count as 'nothing
        gated' — SERVE_METRICS is static, so skips alone must trigger the
        warning path, not a silent pass."""
        baseline = self._write(
            tmp_path, "base.json", {"throughput_rps": 100.0, "p95_ms": 5.0}
        )
        fresh = self._write(tmp_path, "fresh.json", {"schema": "v2"})
        args = ["--kind", "serve", "--baseline", baseline, "--fresh", fresh]
        assert gate.main(args) == 0
        assert "no comparable metrics" in capsys.readouterr().err
        assert gate.main(args + ["--require-metrics"]) == 1

    def test_require_metrics_restores_strictness(self, gate, tmp_path):
        baseline = self._write(tmp_path, "base.json", BASELINE_SHARD)
        fresh = self._write(tmp_path, "fresh.json", {"schema": "v2"})
        assert (
            gate.main(
                [
                    "--kind",
                    "shard",
                    "--baseline",
                    baseline,
                    "--fresh",
                    fresh,
                    "--require-metrics",
                ]
            )
            == 1
        )


class TestCommittedBaselines:
    """A metric a committed baseline lacks is skipped, so it gates nothing:
    each baseline must carry every metric its gate reads."""

    @staticmethod
    def _committed(name):
        with open(os.path.join(_ROOT, name), "r", encoding="utf-8") as handle:
            return json.load(handle)

    @staticmethod
    def _gated(lines):
        return [line.split()[1].rstrip(":") for line in lines]

    def test_control_gate_reads_the_cheap_admission_metrics(self, gate):
        baseline = self._committed("BENCH_control.json")
        lines, failures = gate.compare("control", baseline, baseline, 2.0)
        assert not failures
        assert all(line.split()[0] == "ok" for line in lines)
        assert self._gated(lines) == [
            "cost_predictive.cheap.success_rate",
            "cost_predictive.cheap.p95_ms",
        ]
        regressed = copy.deepcopy(baseline)
        regressed["cost_predictive"]["cheap"]["p95_ms"] *= 3
        _lines, failures = gate.compare("control", baseline, regressed, 2.0)
        assert len(failures) == 1
        assert "cost_predictive.cheap.p95_ms" in failures[0]

    def test_obs_gate_reads_the_paired_median_ratio(self, gate):
        baseline = self._committed("BENCH_obs.json")
        overhead = baseline["overhead"]
        # The baseline's overhead is the median of its per-round ratios.
        assert overhead["p95_median_ratio"] == pytest.approx(
            statistics.median(overhead["rounds_p95_ratio"]), abs=1e-4
        )
        assert len(overhead["rounds_p95_ratio"]) == baseline["config"]["rounds"]
        lines, failures = gate.compare("obs", baseline, baseline, 2.0)
        assert not failures
        assert all(line.split()[0] == "ok" for line in lines)
        assert "overhead.p95_median_ratio" in self._gated(lines)
        assert len(lines) == 4
        regressed = copy.deepcopy(baseline)
        regressed["overhead"]["p95_median_ratio"] *= 2.5
        _lines, failures = gate.compare("obs", baseline, regressed, 2.0)
        assert len(failures) == 1
        assert "overhead.p95_median_ratio" in failures[0]
