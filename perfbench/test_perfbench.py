"""Tests for the benchmark's own code (not the library's).

    python3 -m pytest -q perfbench
"""

import json
import re
import sys
import threading
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _span(span_id, parent, start, end, name="x", thread=1, **counters):
    return {"id": span_id, "parent": parent, "name": name, "thread": thread,
            "start": start, "end": end, "counters": counters}


def test_self_time_subtracts_the_union_of_children():
    spans_ = [_span(1, None, 0.0, 10.0),
              _span(2, 1, 1.0, 3.0), _span(3, 1, 2.0, 5.0),  # overlap counts once
              _span(4, 1, 8.0, 12.0),                        # clipped at the parent's end
              _span(5, 2, 1.5, 2.5)]                         # grandchild: only its parent's
    own = spans.self_times(spans_)
    assert own[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)


def test_metric_names_and_units_are_well_formed():
    tables = [run.E2E_METRICS, run.QUALITY_METRICS, layers.LAYER_METRICS,
              {"trace.overhead_s": "s"}]
    for table in tables:
        for name, unit in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit


def test_benchmark_file_lists_what_the_runner_reports():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_METRICS
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert per_layer == {**layers.REPORTED_METRICS, "trace.overhead_s": "s",
                         **run.QUALITY_METRICS}
    assert set(layers.REPORTED_METRICS) | layers.ONE_WORKLOAD_TIMES == set(layers.LAYER_METRICS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS) == set(workloads.FANOUT_THREADS)
    assert all(w["name"] in run.WORKLOADS for w in doc["workloads"])


def test_gap_formulas_on_hand_made_inputs():
    assert workloads.f1_gap(0.7175, 0.7675) == pytest.approx(0.05)
    assert workloads.f1_gap([0.5, 0.9, 0.6], [0.6, 0.8, 0.6]) == pytest.approx(0.2 / 3)
    assert workloads.auc_gap(0.29125, 0.48125) == pytest.approx(0.19)
    assert workloads.auc_gap([0.6, 0.4], [0.5, 0.5]) == pytest.approx(0.1)


def test_wrapper_returns_exactly_what_the_function_returns():
    recorder = spans.Recorder()
    payload = object()
    traced = spans.wrap(lambda a, b=2: (payload, a, b), "t.f", recorder)
    result = traced(1, b=3)
    assert result[0] is payload and result[1:] == (1, 3)
    assert [s["name"] for s in recorder.spans] == ["t.f"]


def test_wrapper_propagates_errors_and_survives_broken_counters():
    recorder = spans.Recorder()

    def boom(x):
        raise ValueError(x)

    with pytest.raises(ValueError):
        spans.wrap(boom, "t.boom", recorder)(1)
    assert recorder.spans[0]["end"] is not None

    def value(x):
        return x

    traced = spans.wrap(value, "t.value", recorder, counters=lambda call, out: {"n": 1 / 0})
    assert traced(5) == 5
    assert recorder.counter_errors and "ZeroDivisionError" in recorder.counter_errors[0]


def test_install_wraps_every_binding_and_reports_absent_targets():
    def target(x):
        return x + 1

    home = types.ModuleType("home")
    home.target = target
    user = types.ModuleType("user")
    user.alias = target
    user.table = {"cmd": target, "other": len}
    recorder = spans.Recorder()
    absent = spans.install(
        recorder, [(home, "target", "home.target", None),
                   (home, "deleted_later", "home.deleted_later", None)], [home, user])
    assert absent == ["home.deleted_later"]
    assert home.target(1) == user.alias(1) == user.table["cmd"](1) == 2
    assert user.table["other"] is len
    assert [s["name"] for s in recorder.spans] == ["home.target"] * 3


def test_absent_layer_reads_zero_not_error():
    metrics = layers.layer_metrics([], {})
    assert set(metrics) == set(layers.LAYER_METRICS)
    assert metrics["unlearn.contrastive_loss.s"] == 0.0
    assert metrics["influence.pick_ratio"] == 0.0


def test_layer_metrics_from_hand_built_spans():
    spans_ = [
        _span(1, None, 0.0, 4.0, "unlearn.finetune", epochs=2),
        _span(2, 1, 0.5, 1.5, "unlearn.contrastive_loss"),
        _span(3, 1, 2.0, 2.5, "unlearn.contrastive_loss"),
        _span(4, None, 0.0, 1.0, "influence.select_hie", seed_columns=7, picked=3, budget=4),
        _span(5, None, 0.0, 6.0, "cli.train", thread=1),
        _span(6, None, 0.0, 4.0, "cli.train", thread=2),
    ]
    m = layers.layer_metrics(spans_, {"train": 6.0})
    assert m["unlearn.finetune.s"] == pytest.approx(2.5)
    assert m["unlearn.contrastive_loss.s"] == pytest.approx(1.5)
    assert m["unlearn.finetune.epochs"] == 2
    assert m["unlearn.finetune.epoch_ms"] == pytest.approx(2000.0)
    assert m["influence.seed_columns"] == 7
    assert m["influence.pick_ratio"] == pytest.approx(0.75)
    assert m["cli.fanout_threads"] == 2
    assert m["cli.fanout_efficiency"] == pytest.approx(10.0 / 12.0)


def test_recorder_keeps_parents_per_thread_under_contention():
    recorder = spans.Recorder()
    outer = spans.wrap(lambda: inner(), "outer", recorder)
    inner = spans.wrap(lambda: None, "inner", recorder)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [outer() for _ in range(200)])
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    by_id = {s["id"]: s for s in recorder.spans}
    assert len(by_id) == len(recorder.spans) == 2 * 8 * 200
    for span in recorder.spans:
        if span["name"] == "inner":
            parent = by_id[span["parent"]]
            assert parent["name"] == "outer" and parent["thread"] == span["thread"]
        else:
            assert span["parent"] is None
