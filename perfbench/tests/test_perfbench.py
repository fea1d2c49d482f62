"""Tests of the benchmark itself: span arithmetic, output checks, tiny runs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from perfbench import checker, tracer
from perfbench.run import REFERENCE_SEED, ROOT, measure, result_line
from perfbench.tracer import Span, Tracer

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _nested_spans() -> list[Span]:
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    return [
        Span("cli.job", 0.0, 10.0),
        Span("mtl.train_mtl", 1.0, 4.0, parent=0),
        Span("knn.fit_knn", 2.0, 3.0, parent=1),
        Span("mtl.predict_monitoring", 5.0, 9.0, parent=0),
    ]


def test_self_time_subtracts_direct_children_only():
    assert tracer.self_times(_nested_spans()) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("a.x", 0.0, 10.0), Span("b.y", 1.0, 5.0, parent=0),
             Span("b.z", 3.0, 7.0, parent=0)]
    assert tracer.self_times(spans)[0] == 4.0


def test_busy_time_counts_nested_spans_once():
    spans = _nested_spans() + [Span("mtl.train_dedicated", 1.5, 3.5, parent=1)]
    assert tracer.busy_time(spans, {"mtl.train_mtl", "mtl.train_dedicated"}) == 3.0


def test_subtree_reindexes_from_its_root():
    spans = [Span("cli.a", 0.0, 1.0), Span("knn.fit_knn", 0.2, 0.4, parent=0),
             Span("cli.b", 2.0, 5.0), Span("mtl.train_mtl", 2.5, 4.0, parent=2),
             Span("knn.fit_knn", 3.0, 3.5, parent=3)]
    sub = tracer.subtree(spans, "cli.b")
    assert [(s.name, s.parent) for s in sub] == [
        ("cli.b", None), ("mtl.train_mtl", 0), ("knn.fit_knn", 1)]


def test_layer_self_times_split_training_from_prediction():
    m = tracer.layer_metrics(_nested_spans())
    assert m["mtl.train_s"] == (2.0, "s")
    assert m["mtl.predict_s"] == (4.0, "s")
    assert m["knn.fit_s"] == (1.0, "s")


def test_missing_hook_is_named_and_originals_are_restored(monkeypatch):
    from regio_forecast import cli, mtl

    hooks = {**tracer.HOOKS, "mtl": {**tracer.HOOKS["mtl"], "train_renamed": None},
             "gone_module": {"anything": None}}
    monkeypatch.setattr(tracer, "HOOKS", hooks)
    original = mtl.predict_monitoring
    t = Tracer()
    with tracer.hooked(t):
        assert cli.predict_monitoring is not original
        assert mtl.predict_monitoring is cli.predict_monitoring
    assert cli.predict_monitoring is original and mtl.predict_monitoring is original
    assert t.missing_hooks == ["mtl.train_renamed", "gone_module.anything"]


def _write_csv(path, header, rows):
    path.write_text("\n".join([",".join(header)] + [",".join(map(str, r)) for r in rows]) + "\n")


def _predictions(tmp_path, first_infections="12.400000", first_rounded="12"):
    dates = ["2020-01-25", "2020-01-26"]
    _write_csv(tmp_path / "input.csv", ["date", "feat_01"], [[d, 1.0] for d in dates])
    header = ["date", *checker.TARGETS, *(f"{t}_rounded" for t in checker.TARGETS)]
    _write_csv(tmp_path / "predictions.csv", header, [
        [dates[0], first_infections, "3.0", "9.5", "0.2", first_rounded, 3, 10, 0],
        [dates[1], "13.0", "3.0", "9.0", "0.0", 13, 3, 9, 0],
    ])
    return checker.check_predictions(tmp_path, tmp_path / "input.csv")


def test_checker_rejects_a_perturbed_prediction_row(tmp_path):
    reference = _predictions(tmp_path)
    checker.compare_reference(reference, reference, "predict")
    perturbed = _predictions(tmp_path, first_infections="12.401000")
    with pytest.raises(checker.CheckFailure, match=r"infections\[0\]"):
        checker.compare_reference(perturbed, reference, "predict")
    with pytest.raises(checker.CheckFailure, match="non-negative integer"):
        _predictions(tmp_path, first_infections="-1.0", first_rounded="-1")


def _monitoring(tmp_path, r2_low):
    header = ["province"] + [f"{m}_{p}" for m in checker.METRICS for p in ("low", "mid", "top")]
    for target in checker.TARGETS:
        _write_csv(tmp_path / f"monitoring_{target}.csv", header + ["tt_seconds"], [
            ["Alberta", r2_low, 0.8, 0.9] + [0.1, 0.2, 0.3] * 3 + [1.5],
            ["Ontario", 0.6, 0.7, 0.8] + [0.1, 0.2, 0.3] * 3 + [1.5],
        ])
    return checker.check_monitoring(tmp_path, 2)


def test_checker_rejects_an_interval_with_low_above_top(tmp_path):
    assert _monitoring(tmp_path, 0.7)["infections.r2_mid"] == [0.8, 0.7]
    with pytest.raises(checker.CheckFailure, match="low 0.95 > top 0.9"):
        _monitoring(tmp_path, 0.95)


TINY = {
    "monitor-paper": {"rows": 30, "test_days": 8, "bootstrap": 20},
    "serve-large": {"regions": 3, "rows": 30, "test_days": 8},
}
STEP_METRICS = {
    "monitor-paper": ["rotate_s", "evaluate_s"],
    "serve-large": ["train_s", "predict_s", "ppe_s", "artifact_mb"],
}

@pytest.mark.parametrize("workload_name", sorted(TINY))
def test_tiny_run_reports_every_metric(workload_name, tmp_path):
    from perfbench.workloads import WORKLOADS

    workload = dataclasses.replace(WORKLOADS[workload_name], **TINY[workload_name])
    timed = measure(workload, seed=3, seconds=0, trace=False, work=tmp_path / "timed")
    traced = measure(workload, seed=3, seconds=0, trace=True, work=tmp_path / "traced")
    for result in (timed, traced):
        assert result.failures == [] and result.correct
        assert result.metrics["failed_frac"] == (0.0, "ratio")
    for metric in STEP_METRICS[workload_name] + ["failed_frac"]:
        assert metric in timed.metrics and timed.samples[metric] >= 1
    for metric in [f"{m}.calls" for m in tracer.HOOKS]:
        assert metric in traced.metrics
    for trace, result, section in ((False, timed, "end_to_end"), (True, traced, "per_layer")):
        line = result_line(SPEC, result, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1 and line["failed"] == 0
        for metric in SPEC[section]:
            value, unit = result.metrics[metric["name"]]
            assert unit == metric["unit"] and math.isfinite(value)
    assert traced.trace["missing_hooks"] == [] and traced.trace["counter_errors"] == []
    assert traced.metrics["knn.queries"][0] > 0


def test_reference_seed_without_a_reference_at_this_scale_fails(tmp_path):
    from perfbench.workloads import WORKLOADS

    workload = dataclasses.replace(WORKLOADS["serve-large"], **TINY["serve-large"])
    result = measure(workload, seed=REFERENCE_SEED, seconds=0, trace=False, work=tmp_path)
    assert not result.correct
    assert result.failed == result.attempted
    assert all("no reference values" in f for f in result.failures)
