"""Span tracing of ``repro`` from outside: wrap public calls, time layers.

:class:`Tracer` replaces the public functions and methods listed in
:func:`span_targets` with wrappers that record one span per call —
name, start, end, parent span and run id — and restores the originals
on :meth:`Tracer.uninstall`.  Nothing under ``src/`` is edited.

Private handlers are reached only through the event loop, so the
wrapper on ``Simulator.schedule_at`` also wraps every scheduled action
in a span named after its event label (:data:`LABEL_SPANS`): a
milestone handler is timed as ``engine.executor.milestone``, a manager
tick as ``core.manager.tick``, and so on.

Spans are kept in memory in flat arrays and folded into per-(run, name)
totals whenever the buffer fills and when tracing ends, so a trace of
millions of calls stays bounded in memory.  A span's self time is its
duration minus the time its children cover (:func:`fold_spans`).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: The layers, named after the ``repro`` modules they cover.  A span
#: named ``<layer>.<fn>`` belongs to the longest layer that prefixes it.
LAYERS = (
    "engine.simulator",
    "engine.executor",
    "engine.resources",
    "workloads",
    "core.manager",
    "admission",
    "scheduling",
    "execution",
    "core.metrics",
    "cluster",
    "scenarios",
    "parallel",
)

#: Event label (exact, or the part before the first ``:``) -> span name
#: of the handler it fires.  Covers every label scheduled in src/repro.
LABEL_SPANS = {
    "milestone": "engine.executor.milestone",
    "arrival": "workloads.arrival",
    "think": "workloads.think",
    "replay": "workloads.replay",
    "manager:tick": "core.manager.tick",
    "resubmit": "core.manager.resubmit",
    "heiss-wagner": "admission.heiss_wagner",
    "feedback-mpl": "scheduling.feedback_mpl",
    "utility-scheduler": "scheduling.replan",
    "suspend": "execution.suspend",
    "resume": "execution.resume",
    "interrupt-throttle": "execution.throttle_resume",
    "cluster:tick": "cluster.tick",
    "cluster:resubmit": "cluster.reenter",
    "cluster:elastic": "cluster.elastic",
    "heartbeat": "cluster.heartbeat",
    "fault": "cluster.fault",
    "backend-plan": "backends.plan_submit",
}

UNMAPPED = "unmapped.handler"


def label_span(label: str) -> str:
    """Span name of the handler scheduled under ``label``."""
    name = LABEL_SPANS.get(label)
    if name is None:
        name = LABEL_SPANS.get(label.partition(":")[0], UNMAPPED)
    return name


def layer_of(name: str) -> str:
    """The layer a span name belongs to (``""`` for none)."""
    best = ""
    for layer in LAYERS:
        if (name == layer or name.startswith(layer + ".")) and len(layer) > len(best):
            best = layer
    return best


#: Engine control operations (an execution controller's actions).
CONTROL_OPS = ("kill", "set_weight", "set_throttle", "pause", "resume")


def _subclasses(base: type) -> Iterator[type]:
    seen = set()
    stack = [base]
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.add(sub)
                stack.append(sub)
    yield base
    yield from sorted(seen, key=lambda c: (c.__module__, c.__qualname__))


def span_targets() -> List[Tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every public call timed.

    Methods of an abstract base are timed on every ``repro`` class that
    defines them, so each admission controller's ``decide`` counts.
    """
    mod = importlib.import_module
    for name in (
        "repro.admission",
        "repro.scheduling",
        "repro.execution",
        "repro.cluster",
        "repro.scenarios",
        "repro.parallel",
    ):
        mod(name)
    from repro.cluster.dispatcher import ClusterDispatcher
    from repro.cluster.matcher import Matcher
    from repro.cluster.node import ClusterNode
    from repro.cluster.placement import PlacementPolicy
    from repro.cluster.taskqueue import TaskQueue
    from repro.core.interfaces import (
        AdmissionController,
        ExecutionController,
        Scheduler,
    )
    from repro.core.manager import WorkloadManager
    from repro.core.metrics import MetricsCollector, WorkloadStats
    from repro.engine.executor import ExecutionEngine
    from repro.engine.simulator import Simulator
    from repro.scenarios.spec import ScenarioSpec
    from repro.workloads.generator import WorkloadGenerator
    from repro.workloads.models import ArrivalProcess, RequestClass, WorkloadSpec

    targets: List[Tuple[object, str, str]] = [
        (Simulator, "run_until", "engine.simulator.run_until"),
        (Simulator, "schedule_at", "engine.simulator.schedule_at"),
        (ExecutionEngine, "start", "engine.executor.start"),
        *((ExecutionEngine, op, f"engine.executor.{op}") for op in CONTROL_OPS),
        (mod("repro.engine.executor"), "fill_two_resource", "engine.resources.fill"),
        (
            mod("repro.engine.executor"),
            "fair_share_fill_vectorized",
            "engine.resources.fill",
        ),
        (WorkloadGenerator, "make_query", "workloads.make_query"),
        (WorkloadGenerator, "notify_done", "workloads.notify_done"),
        (RequestClass, "sample_cost", "workloads.sample_cost"),
        (RequestClass, "sample_plan", "workloads.sample_plan"),
        (WorkloadSpec, "pick_class", "workloads.pick_class"),
        (WorkloadManager, "submit", "core.manager.submit"),
        (WorkloadManager, "pump", "core.manager.pump"),
        (MetricsCollector, "record_completion", "core.metrics.record_completion"),
        (MetricsCollector, "record_rejection", "core.metrics.record_rejection"),
        (MetricsCollector, "attainment", "core.metrics.attainment"),
        (WorkloadStats, "percentile_response_time", "core.metrics.percentile"),
        (WorkloadStats, "throughput", "core.metrics.throughput"),
        (WorkloadStats, "measurements", "core.metrics.measurements"),
        (ClusterDispatcher, "submit", "cluster.dispatcher.submit"),
        (ClusterDispatcher, "resubmit", "cluster.dispatcher.resubmit"),
        (ClusterDispatcher, "eligible_nodes", "cluster.dispatcher.eligible_nodes"),
        (Matcher, "offer", "cluster.matcher.offer"),
        (Matcher, "pull", "cluster.matcher.pull"),
        (TaskQueue, "push", "cluster.taskqueue.push"),
        (TaskQueue, "match", "cluster.taskqueue.match"),
        (ClusterNode, "submit", "cluster.node.submit"),
        (ScenarioSpec, "from_dict", "scenarios.from_dict"),
    ]
    for base, attr, name in (
        (ArrivalProcess, "arrival_times", "workloads.arrival_times"),
        (AdmissionController, "decide", "admission.decide"),
        (Scheduler, "next_batch", "scheduling.next_batch"),
        (ExecutionController, "control", "execution.control"),
        (PlacementPolicy, "choose", "cluster.placement.choose"),
    ):
        for cls in _subclasses(base):
            method = vars(cls).get(attr)
            if (
                cls.__module__.startswith("repro.")
                and method is not None
                and not getattr(method, "__isabstractmethod__", False)
            ):
                targets.append((cls, attr, name))
    # Functions imported by name into other modules are timed at every
    # binding, so callers reach the wrapper whichever name they use.
    for defining, attr, name in (
        ("repro.scenarios.runner", "run_scenario", "scenarios.run_scenario"),
        ("repro.parallel.runner", "run_tasks", "parallel.run_tasks"),
    ):
        original = getattr(mod(defining), attr)
        for module in sorted(sys.modules):
            owner = sys.modules[module]
            in_repro = module == "repro" or module.startswith("repro.")
            if in_repro and getattr(owner, attr, None) is original:
                targets.append((owner, attr, name))
    return targets


def fold_spans(
    start: np.ndarray,
    end: np.ndarray,
    parent: np.ndarray,
    closed: np.ndarray,
    carried: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Duration, child time and self time of every span in a buffer.

    ``parent`` holds buffer indices (``-1`` for a root); ``closed``
    marks finished spans, whose children are all finished too.  The
    self time of a span is its duration minus the time its children
    cover, which is the sum of their durations: calls nest on a single
    thread, so children of one span never overlap.  ``carried`` adds
    child time folded out of earlier buffers to the spans still open
    across the boundary (the first entries).  Open spans get duration
    and self time 0; their child time so far is kept.
    """
    n = len(start)
    duration = np.where(closed, end - start, 0.0)
    has_parent = closed & (parent >= 0)
    child = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=n
    )[:n].astype(np.float64)
    if carried is not None and len(carried):
        child[: len(carried)] += carried
    return duration, child, np.where(closed, duration - child, 0.0)


class Tracer:
    """Records spans at the wrapped layer boundaries.

    Use as ``with tracer.installed(): ...``; build the objects under
    test inside the block so instances that bind methods at
    construction (``ScopedSimulator``) bind the wrappers.
    """

    #: Spans buffered before folding into totals.
    CHUNK = 1 << 20

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._reset_buffer()
        self._stack: List[int] = []
        self._carried = np.zeros(0)
        self.run_id = -1
        self._run_depth = 0
        #: (run, name id) -> [calls, self seconds, total seconds]
        self.totals: Dict[Tuple[int, int], List[float]] = {}
        #: observed outcomes at the boundaries (rejections, hits, ...)
        self.counters: Dict[str, float] = {}
        self.spans = 0
        self._patches: List[Tuple[object, str, object]] = []

    def _reset_buffer(self) -> None:
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._name = array("q")
        self._run = array("q")

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    # ------------------------------------------------------------------
    # span recording
    # ------------------------------------------------------------------
    def call(self, nid: int, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``self.names[nid]``."""
        stack = self._stack
        if len(self._start) >= self.CHUNK:
            self.flush()
        idx = len(self._start)
        self._parent.append(stack[-1] if stack else -1)
        self._name.append(nid)
        self._run.append(self.run_id)
        self._end.append(0.0)
        stack.append(idx)
        self._start.append(self.clock())
        try:
            return fn(*args, **kwargs)
        finally:
            # the top of the stack, not ``idx``: a flush inside ``fn``
            # moves open spans to the front of a new buffer
            now = self.clock()
            self._end[stack.pop()] = now

    def flush(self) -> None:
        """Fold every finished span into :attr:`totals`; keep open ones."""
        n = len(self._start)
        if n == 0:
            return
        start = np.frombuffer(self._start, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        names = np.frombuffer(self._name, dtype=np.int64)
        runs = np.frombuffer(self._run, dtype=np.int64)
        closed = np.ones(n, dtype=bool)
        closed[self._stack] = False
        duration, child, self_time = fold_spans(
            start, end, parent, closed, self._carried
        )
        keys = runs[closed] * (1 << 32) + names[closed]
        uniq, inverse = np.unique(keys, return_inverse=True)
        calls = np.bincount(inverse)
        selfs = np.bincount(inverse, weights=self_time[closed])
        totals = np.bincount(inverse, weights=duration[closed])
        for key, c, s, t in zip(uniq.tolist(), calls, selfs, totals):
            entry = self.totals.setdefault((key >> 32, key & 0xFFFFFFFF), [0, 0.0, 0.0])
            entry[0] += int(c)
            entry[1] += float(s)
            entry[2] += float(t)
        self.spans += int(closed.sum())
        # Open spans form one chain (each is the parent of the next);
        # they move to the front of the new buffer with the child time
        # already folded out of this one.
        open_idx = list(self._stack)
        self._carried = child[open_idx]
        kept = [(start[i], names[i], runs[i]) for i in open_idx]
        self._reset_buffer()
        for depth, (s, nm, rn) in enumerate(kept):
            self._start.append(float(s))
            self._end.append(0.0)
            self._parent.append(depth - 1)
            self._name.append(int(nm))
            self._run.append(int(rn))
        self._stack[:] = range(len(kept))

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, name: str) -> Callable:
        nid = self.name_id(name)
        call = self.call
        observe = self._observer(name)
        if name == "engine.simulator.run_until":
            tracer = self

            def run_until(*args, **kwargs):
                # an outermost run_until starts a new simulation run
                if tracer._run_depth == 0:
                    tracer.run_id += 1
                tracer._run_depth += 1
                try:
                    return call(nid, fn, *args, **kwargs)
                finally:
                    tracer._run_depth -= 1

            return functools.wraps(fn)(run_until)
        if name == "engine.simulator.schedule_at":
            exact = {
                label: self.name_id(span)
                for label, span in LABEL_SPANS.items()
                if ":" in label
            }
            heads: Dict[str, int] = {}

            def schedule_at(sim, time, action, label=""):
                hid = exact.get(label)
                if hid is None:
                    head = label.partition(":")[0]
                    hid = heads.get(head)
                    if hid is None:
                        hid = heads[head] = self.name_id(label_span(head))
                return call(
                    nid, fn, sim, time, functools.partial(call, hid, action), label
                )

            return functools.wraps(fn)(schedule_at)
        if observe is None:

            def wrapper(*args, **kwargs):
                return call(nid, fn, *args, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                result = call(nid, fn, *args, **kwargs)
                observe(args, result)
                return result

        return functools.wraps(fn)(wrapper)

    def _observer(self, name: str) -> Optional[Callable]:
        """Outcome counters taken where the work happens."""
        count = self.count
        if name == "engine.resources.fill":
            return lambda args, result: count("engine.resources.fill.n", len(args[0]))
        if name == "admission.decide":
            from repro.core.interfaces import AdmissionOutcome

            return lambda args, result: (
                count("admission.rejects")
                if result.outcome is AdmissionOutcome.REJECT
                else None
            )
        if name == "scheduling.next_batch":
            return lambda args, result: count("scheduling.useful") if result else None
        if name in ("cluster.matcher.offer", "cluster.matcher.pull"):
            return lambda args, result: count("cluster.matcher.bound", result)
        if name == "cluster.taskqueue.match":
            return lambda args, result: (
                count("cluster.taskqueue.hits") if result is not None else None
            )
        if name.startswith("engine.executor.") and name.rsplit(".", 1)[1] in CONTROL_OPS:
            control = self.name_id("execution.control")

            def observe(args, result):
                names = self._name
                if any(names[i] == control for i in self._stack):
                    count("execution.actions")

            return observe
        return None

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in span_targets():
            original = vars(owner)[attr]
            if isinstance(original, staticmethod):
                wrapped = staticmethod(self._wrap(original.__func__, name))
            else:
                wrapped = self._wrap(original, name)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.flush()

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def by_name(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, self seconds)`` summed over runs."""
        out: Dict[str, List[float]] = {}
        for (_run, nid), (calls, self_s, _total) in self.totals.items():
            entry = out.setdefault(self.names[nid], [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        return {name: (int(c), s) for name, (c, s) in out.items()}

    def runs(self) -> List[Dict[str, object]]:
        """Per-run span tables, the form written out with a result."""
        rows: Dict[int, Dict[str, List[float]]] = {}
        for (run, nid), (calls, self_s, total) in sorted(self.totals.items()):
            rows.setdefault(run, {})[self.names[nid]] = [
                int(calls), round(self_s, 6), round(total, 6)
            ]
        return [{"run": run, "spans": spans} for run, spans in rows.items()]
