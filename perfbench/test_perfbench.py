"""Unit tests of the benchmark's own code (no program processes).

Run with ``python3 -m pytest perfbench/test_perfbench.py``; the end-to-end
smoke check is ``python3 -m pytest perfbench/check_smoke.py``.
"""

from __future__ import annotations

import json
import os

import pytest

import pbutil
from pbspans import LAYER_OF, TARGETS
from phase import Phase, dispatch_waits, end_to_end, per_layer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def span(sid, parent, start, end, name="compile", rid="r1", thread=1, value=0):
    return (sid, parent, name, start, end, rid, thread, value)


# -- percentiles ------------------------------------------------------------------------


def test_percentile_interpolates_between_closest_ranks():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert pbutil.percentile(samples, 0) == 1.0
    assert pbutil.percentile(samples, 100) == 4.0
    assert pbutil.percentile(samples, 50) == 2.5
    assert pbutil.percentile([7.0], 95) == 7.0
    assert pbutil.percentile(list(range(101)), 95) == 95.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        pbutil.percentile([], 50)
    with pytest.raises(ValueError):
        pbutil.percentile([1.0], 101)


@pytest.mark.parametrize(
    "count, tail",
    [(0, None), (19, None), (20, 50.0), (100, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond_it(count, tail):
    assert pbutil.tail_percentile(count) == tail


def test_latency_summary_reports_its_sample_count():
    summary = pbutil.latency_summary([float(x) for x in range(1, 201)])
    assert summary["n"] == 200
    assert summary["tail_q"] == 95.0
    assert summary["p50"] == pytest.approx(100.5)
    line = pbutil.latency_line("latency read", [1.0, 2.0, 3.0])
    assert "n=3" in line and "no percentile" in line
    assert pbutil.latency_summary([])["n"] == 0


# -- host steal and quiet windows --------------------------------------------------------


def _spans_of(windows):
    return [(first[0], last[0]) for first, last in windows]


def test_quiet_windows_keep_those_stolen_from_no_more_than_the_median():
    # (time, steal ticks, total ticks, program CPU s): windows stolen 0%,
    # 50%, 10%, 0%, 40%.
    samples = [(0.0, 0, 0, 0.0), (1.0, 0, 200, 0.5), (2.0, 100, 400, 1.0),
               (3.0, 120, 600, 1.5), (4.0, 120, 800, 2.0), (5.0, 200, 1000, 2.5)]
    quiet = pbutil.quiet_windows(samples)
    assert _spans_of(quiet) == [(0.0, 1.0), (2.0, 3.0), (3.0, 4.0)]
    assert pbutil.steal_share(samples[0], samples[-1]) == pytest.approx(0.2)
    # Four windows: the lower median (0%) is the cut; ties all stay.
    assert _spans_of(pbutil.quiet_windows(samples[:5])) == [(0.0, 1.0), (3.0, 4.0)]
    quiet_host = [(float(t), 0, 200 * t, 0.0) for t in range(6)]
    assert len(pbutil.quiet_windows(quiet_host)) == 5
    assert _spans_of(pbutil.quiet_windows(samples[:2])) == [(0.0, 1.0)]
    assert pbutil.quiet_windows(samples[:1]) == []


def test_host_sampler_leaves_no_sliver_of_a_last_window():
    import time

    with pbutil.HostSampler(os.getpid(), period=0.2) as host:
        time.sleep(0.45)
    times = [sample[0] for sample in host.samples]
    assert len(times) >= 2 and times == sorted(times)
    assert times[-1] - times[-2] >= 0.1
    assert all(total >= steal >= 0 for _t, steal, total, _cpu in host.samples)
    cpu = [sample[3] for sample in host.samples]
    assert cpu == sorted(cpu)


def test_inside_is_half_open():
    windows = [((0.0,), (1.0,)), ((2.0,), (3.0,))]
    assert pbutil.inside(0.0, windows) and pbutil.inside(2.5, windows)
    assert not pbutil.inside(1.0, windows) and not pbutil.inside(1.5, windows)
    assert not pbutil.inside(-0.1, windows) and not pbutil.inside(3.0, windows)
    assert not pbutil.inside(0.5, [])


def test_latency_and_throughput_come_from_the_quiet_windows():
    phase = Phase(read_classes=["read"])
    phase.setup_s = [1.0]
    phase.host = [(0.0, 0, 0, 0.0), (1.0, 0, 200, 0.02), (2.0, 100, 400, 0.12),
                  (3.0, 100, 600, 0.14)]
    for index in range(30):  # 10 ops per window; the stolen one is slow
        at = index / 10.0 + 0.05
        phase.record("read", 9.0 if 1.0 <= at < 2.0 else 3.0, True, done_at=at)
    metrics = end_to_end(phase)
    assert metrics["read_p50_ms"] == metrics["read_p95_ms"] == 3.0
    assert metrics["throughput_ops_s"] == pytest.approx(10.0)
    assert metrics["cpu_ms_per_op"] == pytest.approx(2.0)  # 40 ms over 20 ops
    assert phase.quiet_reads() == [3.0] * 20


# -- self time --------------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 5.0), span(3, 2, 2.0, 3.0)]
    own = pbutil.self_times(spans)
    assert own == {1: pytest.approx(6.0), 2: pytest.approx(3.0), 3: pytest.approx(1.0)}


def test_self_time_counts_overlapping_children_once():
    spans = [span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 4.0), span(3, 1, 3.0, 6.0)]
    assert pbutil.self_times(spans)[1] == pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent_interval():
    spans = [span(1, 0, 2.0, 6.0), span(2, 1, 1.0, 3.0), span(3, 1, 5.0, 9.0)]
    assert pbutil.self_times(spans)[1] == pytest.approx(2.0)
    assert pbutil.covered([(0.0, 1.0), (2.0, 3.0)], 0.5, 2.5) == pytest.approx(1.0)


def test_layer_totals_sum_self_time_and_values():
    spans = [
        span(1, 0, 0.0, 4.0, name="compile"),
        span(2, 1, 1.0, 2.0, name="glb_for_binding", value=13),
        span(3, 0, 5.0, 6.0, name="admit"),
    ]
    seconds, calls, values = pbutil.layer_totals(spans, LAYER_OF)
    assert seconds["engine.plan.compile"] == pytest.approx(3.0)
    assert seconds["core.rewriting"] == pytest.approx(1.0)
    assert values["core.rewriting"] == 13
    assert "admit" not in calls and calls["core.rewriting"] == 1


def test_dispatch_wait_runs_from_admit_to_the_first_executor_span():
    spans = [
        span(1, 0, 1.0, 1.1, name="admit", rid="a", thread=1),
        span(2, 0, 1.5, 2.0, name="compile", rid="a", thread=2),
        span(3, 0, 1.4, 1.45, name="compile", rid="a", thread=1),  # loop thread
        span(4, 0, 3.0, 3.1, name="admit", rid="b", thread=1),  # never ran
    ]
    assert dispatch_waits(spans, main_thread=1) == {"a": pytest.approx(0.5)}


# -- ratios and idle layers -------------------------------------------------------------


def test_ratio_of_a_zero_denominator_is_zero():
    assert pbutil.ratio(5.0, 0) == 0.0
    assert pbutil.ratio(0.0, 0.0) == 0.0
    assert pbutil.ratio(3.0, 4.0) == 0.75


def _traced_phase(writes: int) -> Phase:
    phase = Phase(read_classes=["read"])
    spans = [span(1, 0, 0.0, 0.002, rid="r0"), span(2, 0, 5.0, 5.0004, name="from_rows", rid=None)]
    phase.record("read", 3.0, True, rid="r0", done_at=0.5)
    for index in range(writes):
        phase.record("write", 2.0, True, rid=f"w{index}", done_at=1.0)
        spans.append(span(10 + index, 0, 1.0, 1.001, name="log_append", rid=f"w{index}", value=100))
    phase.spans = {"main_thread": 1, "spans": spans, "fsyncs": [(1.0, "w0")] if writes else []}
    counters = {"plan_hits": 0, "plan_misses": 0, "summary_hits": 0, "shards_planned": 0}
    phase.counters = {"before": dict(counters), "after": dict(counters)}
    return phase


def test_per_layer_reports_every_metric_and_zero_for_idle_layers():
    names = {m["name"] for m in _benchmark()["per_layer"]}
    metrics = per_layer(_traced_phase(writes=0))
    extra = {"trace.cpu_overhead_ratio", "trace.read_p50_overhead_ratio"}
    extra |= {"write_p50_ms", "write_p95_ms", "fresh_read_p50_ms"}
    assert set(metrics) | extra == names
    assert metrics["engine.plan.compile_ms"] == pytest.approx(2.0)
    assert metrics["datamodel.ingest_ms"] == pytest.approx(0.4)
    for idle in ("store.append_ms", "store.fsyncs", "store.bytes_per_write",
                 "engine.plan.hit_ratio", "engine.sharding.summary_hit_ratio"):
        assert metrics[idle] == 0.0


def test_per_write_metrics_divide_by_acknowledged_writes():
    metrics = per_layer(_traced_phase(writes=2))
    assert metrics["store.append_ms"] == pytest.approx(1.0)
    assert metrics["store.bytes_per_write"] == pytest.approx(100.0)
    assert metrics["store.fsyncs"] == pytest.approx(0.5)


# -- metric grammar and BENCHMARK.json ---------------------------------------------------


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", ["setup_s", "serve.decode_ms", "a", "0x", "a-b.c_d"])
def test_metric_name_grammar_accepts(name):
    pbutil.check_metric_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "x" * 65, "é"])
def test_metric_name_grammar_rejects(name):
    with pytest.raises(ValueError):
        pbutil.check_metric_name(name)


def test_unit_grammar():
    for unit in ("ms", "s", "1/s", "count", "%", "MiB"):
        pbutil.check_unit(unit)
    for unit in ("", "m s", "x" * 17):
        with pytest.raises(ValueError):
            pbutil.check_unit(unit)


def test_benchmark_json_follows_the_contract():
    spec = _benchmark()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= spec["run_seconds"] <= 60 and 2 <= len(spec["workloads"]) <= 8
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
        pbutil.check_metric_name(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["end_to_end"] + spec["per_layer"]:
        pbutil.check_metric_name(metric["name"])
        pbutil.check_unit(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_result_line_prints_every_metric_with_its_unit():
    specs = [{"name": "a_ms", "unit": "ms"}, {"name": "b", "unit": "count"}]
    line = json.loads(pbutil.result_line(True, 3, 0, {"a_ms": 1.5, "b": 2}, specs))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["a_ms"] == {"value": 1.5, "unit": "ms"}
    with pytest.raises(KeyError):
        pbutil.result_line(True, 3, 0, {"a_ms": 1.5}, specs)
    with pytest.raises(ValueError):
        pbutil.result_line(True, 0, 0, {"a_ms": 1.5, "b": 2}, specs)


def test_every_traced_layer_is_a_benchmark_metric():
    per_layer_names = {m["name"] for m in _benchmark()["per_layer"]}
    for _name, _module, _attr, layer in TARGETS:
        if layer:
            assert f"{layer}_ms" in per_layer_names


def test_program_hash_seed_is_derived_from_the_seed():
    assert pbutil.hash_seed_of(1) == pbutil.hash_seed_of(1)
    assert pbutil.hash_seed_of(1) != pbutil.hash_seed_of(2)
    assert 0 <= pbutil.hash_seed_of(7) <= 4294967295


# -- generated inputs --------------------------------------------------------------------


def test_conditioned_instances_repeat_and_share_the_conflict_count():
    import wl_http

    first, again, other = (wl_http._wr_instance(s) for s in (3, 3, 4))
    assert first.facts == again.facts and first.facts != other.facts
    expected = round(wl_http.WR_INCONSISTENCY * int(wl_http.WR_FACTS * 0.7))
    assert len(first.inconsistent_blocks("Stock")) == expected
    assert len(other.inconsistent_blocks("Stock")) == expected


def test_write_plan_only_removes_present_and_adds_absent_facts():
    import wl_http

    base = wl_http._wr_instance(5)
    tail, writes = wl_http._wr_plan(5, base)
    present = {tuple(f.values) for f in base.facts if f.relation == "Stock"}
    assert len(tail) == wl_http.WR_TAIL and set(tail) <= present
    present -= set(tail)
    level = len(present)
    for index, (op, values) in enumerate(writes):
        assert op == ("remove" if index % 2 == 0 else "add")
        if op == "remove":
            assert values in present
            present.remove(values)
        else:
            assert values not in present
            present.add(values)
            assert len(present) == level
