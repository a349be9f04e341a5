"""The four benchmark workloads, built from the public ``repro`` API.

Each workload turns a seed into a :class:`Job`: :meth:`Workload.prepare`
does the set-up a user pays before a simulation starts (building the
spec, the manager or cluster, and ``Scenario.build``, which pre-draws
the arrivals), :meth:`Job.execute` runs the simulation and is the only
part that is timed, and :meth:`Job.result` reduces the run to its
completed-query count, its seeded outcome digest and the list of
correctness problems it found (conservation, event budget).

Input sizes, canonical seeds, digest pins and event budgets live in
``workloads.json`` next to this file, so the numbers a later change is
measured against are data, not code.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.cluster.failover import FaultInjector
from repro.cluster.scenario import (
    HETEROGENEOUS_SPEEDS,
    build_cluster,
    churn_plan,
    matcher_scenario,
)
from repro.core.interfaces import ExecutionController, ManagerContext
from repro.core.manager import FCFSDispatcher, WorkloadManager
from repro.core.policy import (
    AdmissionPolicy,
    Threshold,
    ThresholdAction,
    ThresholdKind,
)
from repro.core.sla import SLASet, response_time_sla
from repro.admission.threshold import ThresholdAdmission
from repro.engine.query import Query, QueryState
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.errors import SimulationBudgetExceeded
from repro.execution.reprioritization import PriorityAgingController
from repro.parallel.digest import combine, dispatcher_digest, outcome_digest
from repro.scenarios.sweep import run_scenario_matrix, scenario_matrix_tasks
from repro.workloads.generator import Scenario, bi_workload, oltp_workload
from repro.workloads.models import (
    ClosedArrivals,
    Constant,
    Exponential,
    RequestClass,
    Uniform,
    WorkloadSpec,
)

CONFIG_PATH = Path(__file__).resolve().parent / "workloads.json"

#: The single simulated server of the one-node workloads.
MACHINE = MachineSpec(cpu_capacity=4.0, disk_capacity=2.0, memory_mb=2048.0)

TERMINAL = (QueryState.COMPLETED, QueryState.REJECTED, QueryState.KILLED)


def load_config() -> Dict[str, dict]:
    """``workloads.json``: per-workload size, seed, pin and budget."""
    with open(CONFIG_PATH) as fh:
        return json.load(fh)["workloads"]


@dataclass
class JobResult:
    queries: int
    events: int
    digest: str
    problems: List[str] = field(default_factory=list)


class Ledger:
    """Counts arrivals at the generator seam and terminal outcomes at
    the completion funnel, keeping the queries still in flight."""

    def __init__(self, submit: Callable[[Query], object]) -> None:
        self._submit = submit
        self.arrivals = 0
        self.terminal = {state: 0 for state in TERMINAL}
        self.live: Dict[int, Query] = {}

    def submit(self, query: Query) -> None:
        self.arrivals += 1
        self.live[query.query_id] = query
        self._submit(query)

    def on_terminal(self, query: Query) -> None:
        if self.live.pop(query.query_id, None) is not None:
            self.terminal[query.state] = self.terminal.get(query.state, 0) + 1

    def problems(self, completed: int, rejected: int, outstanding: int) -> List[str]:
        """Conservation: arrivals == completed + rejected + killed +
        in flight, with the server's own counters agreeing."""
        out: List[str] = []
        done = self.terminal[QueryState.COMPLETED]
        refused = self.terminal[QueryState.REJECTED]
        killed = self.terminal[QueryState.KILLED]
        in_flight = len(self.live)
        if self.arrivals != done + refused + killed + in_flight:
            out.append(
                f"conservation: {self.arrivals} arrivals != {done} completed + "
                f"{refused} rejected + {killed} killed + {in_flight} in flight"
            )
        if (done, refused) != (completed, rejected):
            out.append(
                f"conservation: funnel saw {done} completed / {refused} rejected, "
                f"server counted {completed} / {rejected}"
            )
        if outstanding > in_flight:
            out.append(
                f"conservation: server holds {outstanding} queries, "
                f"only {in_flight} in flight"
            )
        stuck = [q.query_id for q in self.live.values() if q.state in TERMINAL]
        if stuck:
            out.append(f"conservation: {len(stuck)} terminal queries never reported")
        odd = {s.value: n for s, n in self.terminal.items() if s not in TERMINAL}
        if odd:
            out.append(f"conservation: non-terminal states reported as terminal: {odd}")
        return out


def _budget_problem(error: SimulationBudgetExceeded) -> str:
    return f"event budget: {error}"


# ----------------------------------------------------------------------
# closed_mpl
# ----------------------------------------------------------------------
def _closed_spec(population: int) -> WorkloadSpec:
    job = RequestClass(
        name="job",
        cpu=Exponential(0.012),
        io=Exponential(0.024),
        memory_mb=Uniform(4.0, 16.0),
        rows=Constant(1_000),
    )
    return WorkloadSpec(
        name="closed",
        request_classes=((job, 1.0),),
        arrivals=ClosedArrivals(population=population, think_time=Constant(0.01)),
        priority=1,
    )


class _ManagedRun:
    """One simulated server driven by one scenario."""

    def __init__(self, manager: WorkloadManager, scenario: Scenario) -> None:
        self.manager = manager
        self.horizon = scenario.horizon
        self.ledger = Ledger(manager.submit)
        generator = scenario.build(
            manager.sim, self.ledger.submit, sessions=manager.sessions
        )
        manager.add_completion_listener(self.ledger.on_terminal)
        manager.add_completion_listener(generator.notify_done)
        self.problems: List[str] = []

    def execute(self, budget: int) -> None:
        try:
            self.manager.run(self.horizon, drain=self.horizon, max_events=budget)
        except SimulationBudgetExceeded as error:
            self.problems.append(_budget_problem(error))

    def completed(self) -> int:
        metrics = self.manager.metrics
        return sum(metrics.stats_for(w).completions for w in metrics.workloads())

    def check(self) -> List[str]:
        metrics = self.manager.metrics
        rejected = sum(metrics.stats_for(w).rejections for w in metrics.workloads())
        return self.problems + self.ledger.problems(
            self.completed(), rejected, self.manager.outstanding_work()
        )


class ClosedMplJob:
    def __init__(self, seed: int, size: dict) -> None:
        self.budget = int(size["event_budget"])
        spec = _closed_spec(int(size["population"]))
        self.runs = []
        for mpl in size["mpl"]:
            sim = Simulator(seed=seed + mpl)
            manager = WorkloadManager(
                sim, machine=MACHINE, scheduler=FCFSDispatcher(max_concurrency=mpl)
            )
            scenario = Scenario(specs=(spec,), horizon=float(size["horizon"]))
            self.runs.append(_ManagedRun(manager, scenario))

    def execute(self) -> None:
        for run in self.runs:
            run.execute(self.budget)

    def result(self) -> JobResult:
        problems = [p for run in self.runs for p in run.check()]
        return JobResult(
            queries=sum(run.completed() for run in self.runs),
            events=sum(run.manager.sim.events_fired for run in self.runs),
            digest=combine(outcome_digest(run.manager) for run in self.runs),
            problems=problems,
        )


# ----------------------------------------------------------------------
# open_mixed
# ----------------------------------------------------------------------
class SLAPoller(ExecutionController):
    """A monitoring client: reads every SLA-relevant metric each tick
    and hashes the readings, so the digest also covers what the metrics
    layer answered, not just the outcome streams."""

    def __init__(self) -> None:
        self.polls = 0
        self._hash = hashlib.sha256()

    def _feed(self, value: Optional[float]) -> None:
        self._hash.update(struct.pack("<d", float("nan") if value is None else value))

    def control(self, context: ManagerContext) -> None:
        self.polls += 1
        now = context.now
        attainment = context.metrics.attainment(context.slas, now)
        for workload in sorted(attainment):
            self._feed(attainment[workload])
        for workload in sorted(context.metrics.workloads()):
            stats = context.metrics.stats_for(workload)
            measurements = stats.measurements(now, percentile=95.0)
            for kind in sorted(measurements, key=lambda k: k.name):
                self._feed(measurements[kind])
            self._feed(stats.percentile_response_time(99.0))
            self._feed(stats.throughput(window=30.0, now=now))

    def digest(self) -> str:
        return self._hash.hexdigest()


class OpenMixedJob:
    def __init__(self, seed: int, size: dict) -> None:
        self.budget = int(size["event_budget"])
        self.poller = SLAPoller()
        aging = PriorityAgingController(
            thresholds=(
                Threshold(ThresholdKind.ELAPSED_TIME, 10.0, ThresholdAction.DEMOTE),
            ),
            demote_cooldown=5.0,
        )
        admission = ThresholdAdmission(
            per_workload={
                "bi": AdmissionPolicy(reject_over_cost=float(size["bi_cost_limit"]))
            }
        )
        slas = SLASet(
            [
                response_time_sla("oltp", average=0.5, p95=2.0, importance=3),
                response_time_sla("bi", average=60.0, importance=1),
            ]
        )
        manager = WorkloadManager(
            Simulator(seed=seed),
            machine=MACHINE,
            admission=admission,
            scheduler=FCFSDispatcher(max_concurrency=int(size["mpl"])),
            execution_controllers=(aging, self.poller),
            slas=slas,
            control_period=float(size["control_period"]),
        )
        scenario = Scenario(
            specs=(
                oltp_workload(rate=float(size["oltp_rate"]), priority=3),
                bi_workload(
                    rate=float(size["bi_rate"]),
                    priority=1,
                    median_cpu=4.0,
                    median_io=8.0,
                    sigma=0.8,
                    memory_low=100.0,
                    memory_high=300.0,
                ),
            ),
            horizon=float(size["horizon"]),
        )
        self.run = _ManagedRun(manager, scenario)

    def execute(self) -> None:
        self.run.execute(self.budget)

    def result(self) -> JobResult:
        manager = self.run.manager
        digest = hashlib.sha256(
            (outcome_digest(manager) + self.poller.digest()).encode("ascii")
        ).hexdigest()
        return JobResult(
            queries=self.run.completed(),
            events=manager.sim.events_fired,
            digest=digest,
            problems=self.run.check(),
        )


# ----------------------------------------------------------------------
# cluster_pull
# ----------------------------------------------------------------------
class ClusterPullJob:
    def __init__(self, seed: int, size: dict) -> None:
        self.budget = int(size["event_budget"])
        nodes = int(size["nodes"])
        self.horizon = float(size["horizon"])
        self.sim = Simulator(seed=seed)
        self.dispatcher = build_cluster(
            self.sim,
            nodes=nodes,
            policy="cost",
            mpl=int(size["mpl"]),
            dispatch="pull",
            speed_factors=HETEROGENEOUS_SPEEDS,
        )
        scenario = matcher_scenario(horizon=self.horizon, nodes=nodes)
        self.ledger = Ledger(self.dispatcher.submit)
        generator = scenario.build(
            self.sim, self.ledger.submit, sessions=self.dispatcher.sessions
        )
        self.dispatcher.add_completion_listener(self.ledger.on_terminal)
        self.dispatcher.add_completion_listener(generator.notify_done)
        self.dispatcher.generator = generator
        injector = FaultInjector(self.dispatcher)
        injector.arm(churn_plan(nodes, self.horizon))
        self.dispatcher.injector = injector
        self.problems: List[str] = []

    def execute(self) -> None:
        # ClusterDispatcher.run without a budget argument: the same two
        # calls, with the explicit event budget.
        try:
            self.sim.run_until(3.0 * self.horizon, max_events=self.budget)
        except SimulationBudgetExceeded as error:
            self.problems.append(_budget_problem(error))
        self.dispatcher.shutdown()

    def result(self) -> JobResult:
        d = self.dispatcher
        problems = self.problems + self.ledger.problems(
            d.completions, d.rejections, d.outstanding_work()
        )
        if d.arrivals != self.ledger.arrivals:
            problems.append(
                f"conservation: dispatcher counted {d.arrivals} arrivals, "
                f"generator emitted {self.ledger.arrivals}"
            )
        return JobResult(
            queries=d.completions,
            events=self.sim.events_fired,
            digest=dispatcher_digest(d),
            problems=problems,
        )


# ----------------------------------------------------------------------
# tenant_matrix
# ----------------------------------------------------------------------
class TenantMatrixJob:
    def __init__(self, seed: int, size: dict, workers: int) -> None:
        self.budget = int(size["event_budget"])
        self.seeds = (seed,)
        self.workers = workers
        self.tasks = scenario_matrix_tasks(seeds=self.seeds)
        if len(self.tasks) != int(size["runs"]):
            raise RuntimeError(
                f"matrix has {len(self.tasks)} runs, expected {size['runs']}"
            )
        self.sweep = None

    def execute(self) -> None:
        self.sweep = run_scenario_matrix(seeds=self.seeds, workers=self.workers)

    def result(self) -> JobResult:
        sweep = self.sweep
        problems: List[str] = []
        if len(sweep.values) != len(self.tasks):
            problems.append(
                f"{len(self.tasks) - len(sweep.values)} matrix runs failed"
            )
        for value in sweep.values:
            run = f"{value['scenario']}/{value['policy']}" + (
                "/companion" if value.get("exclude_noisy") else ""
            )
            if int(value["events"]) > self.budget:
                problems.append(
                    f"event budget: {run} fired {value['events']} > {self.budget}"
                )
            tenants = value["tenants"].values()
            for name, ledger in value["tenants"].items():
                if ledger["in_flight"] < 0:
                    problems.append(f"conservation: {run} tenant {name} ledger {ledger}")
            for key, total in (
                ("intake", "arrivals"),
                ("completed", "completed"),
                ("rejected", "rejected"),
            ):
                summed = sum(int(t[key]) for t in tenants)
                if summed != int(value[total]):
                    problems.append(
                        f"conservation: {run} tenants' {key} sum {summed} "
                        f"!= cluster {total} {value[total]}"
                    )
        return JobResult(
            queries=sum(int(v["completed"]) for v in sweep.values),
            events=sum(int(v["events"]) for v in sweep.values),
            digest=sweep.digest,
            problems=problems,
        )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    config: dict

    @property
    def canonical_seed(self) -> int:
        return int(self.config["canonical_seed"])

    @property
    def pin(self) -> str:
        return str(self.config["digest_pin"])

    @property
    def workers(self) -> int:
        """Worker processes of the timed run (1 = in-process)."""
        return int(self.config["size"].get("workers", 1))

    def prepare(self, seed: int, workers: Optional[int] = None):
        size = self.config["size"]
        if self.name == "closed_mpl":
            return ClosedMplJob(seed, size)
        if self.name == "open_mixed":
            return OpenMixedJob(seed, size)
        if self.name == "cluster_pull":
            return ClusterPullJob(seed, size)
        if self.name == "tenant_matrix":
            return TenantMatrixJob(
                seed, size, self.workers if workers is None else workers
            )
        raise ValueError(f"no job for workload {self.name!r}")


def workloads() -> Dict[str, Workload]:
    return {name: Workload(name, config) for name, config in load_config().items()}
