"""Tests of the benchmark itself: span arithmetic, names, label coverage
and the predicted layer bypasses.

    python3 -m pytest wmbench/tests -q
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from wmbench.compare import fingerprint_diff  # noqa: E402
from wmbench.metrics import END_TO_END, NAME_RE, PER_LAYER, layer_metrics  # noqa: E402
from wmbench.tracer import (  # noqa: E402
    LAYERS,
    UNMAPPED,
    Tracer,
    fold_spans,
    label_span,
    layer_of,
)
from wmbench.workloads import Workload, workloads  # noqa: E402


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def test_fold_spans_on_a_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has a1 [2, 3]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    closed = np.ones(4, dtype=bool)
    duration, child, self_time = fold_spans(start, end, parent, closed)
    assert duration.tolist() == [10.0, 3.0, 1.0, 4.0]
    assert child.tolist() == [7.0, 1.0, 0.0, 0.0]
    assert self_time.tolist() == [3.0, 2.0, 1.0, 4.0]


def test_fold_spans_leaves_open_spans_and_carries_child_time():
    # root still open; carried 2.0 s of children folded earlier
    start = np.array([0.0, 1.0])
    end = np.array([0.0, 4.0])
    parent = np.array([-1, 0])
    closed = np.array([False, True])
    duration, child, self_time = fold_spans(
        start, end, parent, closed, carried=np.array([2.0])
    )
    assert duration.tolist() == [0.0, 3.0]
    assert child.tolist() == [5.0, 0.0]
    assert self_time.tolist() == [0.0, 3.0]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.mark.parametrize("chunk", [2, 3, 1 << 20])
def test_tracer_self_time_across_buffer_flushes(chunk):
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.CHUNK = chunk
    outer, inner, leaf = (tracer.name_id(n) for n in ("x.outer", "x.inner", "x.leaf"))

    def tick(seconds):
        clock.now += seconds

    def leaf_fn():
        tick(1.0)

    def inner_fn():
        tick(0.5)
        tracer.call(leaf, leaf_fn)
        tick(0.5)
        tracer.call(leaf, leaf_fn)

    def outer_fn():
        tick(2.0)
        for _ in range(3):
            tracer.call(inner, inner_fn)
        tick(2.0)

    tracer.call(outer, outer_fn)
    tracer.flush()
    by_name = tracer.by_name()
    assert by_name["x.outer"] == (1, pytest.approx(4.0))
    assert by_name["x.inner"] == (3, pytest.approx(3.0))
    assert by_name["x.leaf"] == (6, pytest.approx(6.0))
    assert tracer.spans == 10


def test_layer_of_uses_the_longest_prefix():
    assert layer_of("engine.executor.milestone") == "engine.executor"
    assert layer_of("cluster.matcher.offer") == "cluster"
    assert layer_of("core.metrics.attainment") == "core.metrics"
    assert layer_of("unmapped.handler") == ""


# ----------------------------------------------------------------------
# names
# ----------------------------------------------------------------------
def test_metric_names_are_valid_and_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in bench["workloads"]]:
        assert NAME_RE.match(name), name
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == [
        tuple(row) for row in END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads())
    per_layer = {name for name, _unit in PER_LAYER}
    end_to_end = {name for name, _unit, _better in END_TO_END}
    for workload in workloads().values():
        for row in workload.config["predictions"]:
            assert set(row["metrics"]) <= per_layer, row
            assert set(row["end_to_end"]) <= end_to_end, row


# ----------------------------------------------------------------------
# every label scheduled in src/repro lands in a layer
# ----------------------------------------------------------------------
def _scheduled_label_prefixes():
    prefixes = set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("schedule", "schedule_at", "schedule_periodic")
            ):
                continue
            for keyword in node.keywords:
                if keyword.arg != "label":
                    continue
                value = keyword.value
                if isinstance(value, ast.Constant):
                    prefixes.add((str(path), value.value))
                elif isinstance(value, ast.JoinedStr):
                    head = value.values[0]
                    assert isinstance(head, ast.Constant), f"{path}:{node.lineno}"
                    prefixes.add((str(path), head.value))
    return prefixes


def test_label_map_covers_every_scheduled_label():
    prefixes = _scheduled_label_prefixes()
    assert any(p.startswith("milestone:") for _f, p in prefixes)
    unmapped = sorted((f, p) for f, p in prefixes if label_span(p) == UNMAPPED)
    assert not unmapped
    for _f, prefix in prefixes:
        span = label_span(prefix)
        assert layer_of(span) in LAYERS or span.startswith("backends."), span


# ----------------------------------------------------------------------
# the traced run changes nothing, and the bypass predictions hold
# ----------------------------------------------------------------------
def _traced(name: str, scale: float):
    config = workloads()[name].config
    size = {**config["size"], "horizon": float(config["size"]["horizon"]) * scale}
    workload = Workload(name, {**config, "size": size})
    plain = workload.prepare(3, workers=1)
    plain.execute()
    tracer = Tracer()
    with tracer.installed():
        job = workload.prepare(3, workers=1)
        job.execute()
    result = job.result()
    assert not result.problems
    assert result.digest == plain.result().digest
    extra = {
        "parallel.efficiency": 0.0,
        "parallel.retried_shards": 0.0,
        "parallel.stragglers": 0.0,
        "trace.overhead_ratio": 1.0,
        "trace.spans": float(tracer.spans),
    }
    return layer_metrics(tracer.by_name(), tracer.counters, 1.0, result.queries, extra)


@pytest.mark.parametrize("name", ["closed_mpl", "open_mixed"])
def test_single_node_workloads_make_no_cluster_calls(name):
    metrics = _traced(name, scale=0.2)
    assert metrics["cluster.calls"] == 0
    assert metrics["engine.resources.fill.calls"] > 0
    assert metrics["trace.unmapped.calls"] == 0


def test_cluster_pull_fills_at_most_two_queries_on_average():
    metrics = _traced("cluster_pull", scale=0.25)
    assert metrics["cluster.calls"] > 0
    assert 0 < metrics["engine.resources.fill.mean_n"] <= 2
    assert metrics["trace.unmapped.calls"] == 0


def test_tracer_restores_the_originals():
    from repro.engine.simulator import Simulator

    original = Simulator.__dict__["schedule_at"]
    tracer = Tracer()
    with tracer.installed():
        assert Simulator.__dict__["schedule_at"] is not original
    assert Simulator.__dict__["schedule_at"] is original


def test_fingerprint_diff_flags_every_differing_field():
    a = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6"}
    b = {"nproc": 4, "python": "3.11.7", "numpy": "2.4.6"}
    assert fingerprint_diff(a, a) == []
    assert fingerprint_diff(a, b) == ["nproc: 2 != 4"]
