"""Metric names, units and the per-layer reduction of a trace.

The end-to-end metrics are what a user of the simulator pays: host
throughput of a batch of simulated queries, set-up time in a fresh
process and peak memory.  The per-layer metrics come from a traced run
(:mod:`wmbench.tracer`): each layer's self time and share of the traced
run, plus the counts and ratios an optimisation of that layer should
move.  ``BENCHMARK.json`` lists the same names; a test keeps them equal.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import re
from typing import Dict, List, Mapping, Tuple

import numpy as np

from wmbench.tracer import CONTROL_OPS, LABEL_SPANS, LAYERS, UNMAPPED, layer_of

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

#: (name, unit, better) of the end-to-end metrics, measured untraced.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("queries_per_s", "queries/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_KEY_METRICS: Tuple[Tuple[str, str], ...] = (
    ("engine.simulator.events", "count"),
    ("engine.simulator.events_per_query", "ratio"),
    ("engine.executor.start.calls", "count"),
    ("engine.executor.milestone.calls", "count"),
    ("engine.executor.milestone.self_s", "s"),
    ("engine.executor.control_ops.calls", "count"),
    ("engine.resources.fill.calls", "count"),
    ("engine.resources.fill.mean_n", "count"),
    ("engine.resources.fill_per_query", "ratio"),
    ("engine.resources.fill.self_s", "s"),
    ("workloads.make_query.calls", "count"),
    ("workloads.make_query.self_s", "s"),
    ("workloads.arrival_times.self_s", "s"),
    ("core.manager.submit.self_s", "s"),
    ("core.manager.pump.calls", "count"),
    ("core.manager.pump.self_s", "s"),
    ("admission.decide.calls", "count"),
    ("admission.reject_ratio", "ratio"),
    ("scheduling.next_batch.calls", "count"),
    ("scheduling.useful_ratio", "ratio"),
    ("execution.control.calls", "count"),
    ("execution.control.self_s", "s"),
    ("execution.actions", "count"),
    ("core.metrics.record.self_s", "s"),
    ("core.metrics.query.calls", "count"),
    ("core.metrics.query.self_s", "s"),
    ("cluster.calls", "count"),
    ("cluster.matcher.bind_ratio", "ratio"),
    ("cluster.taskqueue.match_hit_ratio", "ratio"),
    ("cluster.placement.choose.self_s", "s"),
    ("cluster.resubmits", "count"),
    ("scenarios.run_scenario.calls", "count"),
    ("parallel.efficiency", "ratio"),
    ("parallel.retried_shards", "count"),
    ("parallel.stragglers", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
    ("trace.coverage", "ratio"),
    ("trace.unmapped.calls", "count"),
)

#: (name, unit) of the per-layer metrics, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    (f"{layer}.{kind}", unit)
    for layer in LAYERS
    for kind, unit in (("self_s", "s"), ("share", "ratio"))
) + _KEY_METRICS

#: span names of event handlers: one per fired event
_HANDLERS = frozenset(LABEL_SPANS.values()) | {UNMAPPED}

_RECORD = ("core.metrics.record_completion", "core.metrics.record_rejection")
_QUERY = (
    "core.metrics.attainment",
    "core.metrics.percentile",
    "core.metrics.throughput",
    "core.metrics.measurements",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    by_name: Mapping[str, Tuple[int, float]],
    counters: Mapping[str, float],
    wall: float,
    queries: int,
    extra: Mapping[str, float],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run.

    ``by_name`` maps span name to ``(calls, self seconds)``; ``wall`` is
    the traced run's host time, the denominator of every share;
    ``extra`` carries values measured outside the trace (the parallel
    sweep's telemetry and the tracing overhead).
    """

    def calls(*names: str) -> int:
        return sum(by_name.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names: str) -> float:
        return sum(by_name.get(n, (0, 0.0))[1] for n in names)

    layer_self = {layer: 0.0 for layer in LAYERS}
    cluster_calls = 0
    for name, (n, s) in by_name.items():
        layer = layer_of(name)
        if layer:
            layer_self[layer] += s
        if layer == "cluster":
            cluster_calls += n
    events = calls(*(n for n in by_name if n in _HANDLERS))
    fills = calls("engine.resources.fill")
    offers = calls("cluster.matcher.offer", "cluster.matcher.pull")
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
        out[f"{layer}.share"] = _ratio(layer_self[layer], wall)
    out.update(
        {
            "engine.simulator.events": events,
            "engine.simulator.events_per_query": _ratio(events, queries),
            "engine.executor.start.calls": calls("engine.executor.start"),
            "engine.executor.milestone.calls": calls("engine.executor.milestone"),
            "engine.executor.milestone.self_s": self_s("engine.executor.milestone"),
            "engine.executor.control_ops.calls": calls(
                *(f"engine.executor.{op}" for op in CONTROL_OPS)
            ),
            "engine.resources.fill.calls": fills,
            "engine.resources.fill.mean_n": _ratio(
                counters.get("engine.resources.fill.n", 0.0), fills
            ),
            "engine.resources.fill_per_query": _ratio(fills, queries),
            "engine.resources.fill.self_s": self_s("engine.resources.fill"),
            "workloads.make_query.calls": calls("workloads.make_query"),
            "workloads.make_query.self_s": self_s("workloads.make_query"),
            "workloads.arrival_times.self_s": self_s("workloads.arrival_times"),
            "core.manager.submit.self_s": self_s("core.manager.submit"),
            "core.manager.pump.calls": calls("core.manager.pump"),
            "core.manager.pump.self_s": self_s("core.manager.pump"),
            "admission.decide.calls": calls("admission.decide"),
            "admission.reject_ratio": _ratio(
                counters.get("admission.rejects", 0.0), calls("admission.decide")
            ),
            "scheduling.next_batch.calls": calls("scheduling.next_batch"),
            "scheduling.useful_ratio": _ratio(
                counters.get("scheduling.useful", 0.0), calls("scheduling.next_batch")
            ),
            "execution.control.calls": calls("execution.control"),
            "execution.control.self_s": self_s("execution.control"),
            "execution.actions": counters.get("execution.actions", 0.0),
            "core.metrics.record.self_s": self_s(*_RECORD),
            "core.metrics.query.calls": calls(*_QUERY),
            "core.metrics.query.self_s": self_s(*_QUERY),
            "cluster.calls": cluster_calls,
            "cluster.matcher.bind_ratio": _ratio(
                counters.get("cluster.matcher.bound", 0.0), offers
            ),
            "cluster.taskqueue.match_hit_ratio": _ratio(
                counters.get("cluster.taskqueue.hits", 0.0),
                calls("cluster.taskqueue.match"),
            ),
            "cluster.placement.choose.self_s": self_s("cluster.placement.choose"),
            "cluster.resubmits": calls("cluster.dispatcher.resubmit"),
            "scenarios.run_scenario.calls": calls("scenarios.run_scenario"),
            "trace.wall_s": wall,
            "trace.coverage": _ratio(sum(layer_self.values()), wall),
            "trace.unmapped.calls": calls(UNMAPPED),
        }
    )
    out.update(extra)
    missing = [name for name, _unit in PER_LAYER if name not in out]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {name: float(out[name]) for name, _unit in PER_LAYER}


def fn_metrics(by_name: Mapping[str, Tuple[int, float]]) -> List[Tuple[str, float, str]]:
    """``<layer>.<fn>.calls`` and ``.self_s`` for every span name seen."""
    rows: List[Tuple[str, float, str]] = []
    for name in sorted(by_name):
        n, s = by_name[name]
        rows.append((f"{name}.calls", float(n), "count"))
        rows.append((f"{name}.self_s", s, "s"))
    return rows


def fingerprint() -> Dict[str, object]:
    """The machine a result was measured on."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    methods = multiprocessing.get_all_start_methods()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        # the method repro.parallel.run_tasks picks by default
        "mp_start_method": "fork" if "fork" in methods else "spawn",
        "platform": f"{platform.system()}-{platform.machine()}",
    }
