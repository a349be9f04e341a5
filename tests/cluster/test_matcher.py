"""Matcher + pull-binding tests: late binding, recovery, determinism."""

import pytest

from repro.admission.threshold import ThresholdAdmission
from repro.cluster import ClusterDispatcher, ClusterNode, PullBinding
from repro.cluster import scenario
from repro.cluster.dispatcher import make_binding
from repro.cluster.failover import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.cluster.matcher import Matcher
from repro.cluster.scenario import (
    CLUSTER_SLAS,
    HETEROGENEOUS_SPEEDS,
    build_cluster,
    churn_plan,
    matcher_scenario,
    run_cluster_scenario,
)
from repro.core.policy import AdmissionPolicy
from repro.engine.query import QueryState
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.execution.suspend_resume import SuspendResumeController

from tests.conftest import CheckedSimulator, make_query, staged_plan


def _pull_cluster(seed=5, count=3, mpl=1, max_outstanding=None, **kwargs):
    sim = Simulator(seed=seed)
    nodes = [
        ClusterNode(sim, name=f"n{i}", mpl=mpl, max_outstanding=max_outstanding)
        for i in range(count)
    ]
    dispatcher = ClusterDispatcher(
        sim, nodes, slas=CLUSTER_SLAS, dispatch="pull", **kwargs
    )
    return sim, dispatcher


class TestBindingFactory:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            make_binding("teleport")

    def test_dispatch_property_reports_mode(self):
        _, dispatcher = _pull_cluster()
        assert dispatcher.dispatch == "pull"
        assert isinstance(dispatcher.binding, PullBinding)


class TestLateBinding:
    def test_arrival_binds_to_free_slot_immediately(self):
        sim, dispatcher = _pull_cluster(count=2)
        query = make_query(cpu=0.5, io=0.0, sql="oltp:q")
        dispatcher.submit(query)
        assert query.state is QueryState.RUNNING
        assert dispatcher.cluster_queue_depth == 0

    def test_backlog_waits_in_task_queue_not_on_nodes(self):
        sim, dispatcher = _pull_cluster(count=2, mpl=1)
        queries = [make_query(cpu=2.0, io=0.0, sql="oltp:q") for _ in range(6)]
        for query in queries:
            dispatcher.submit(query)
        # one per execution slot; the rest wait unbound at the cluster
        assert sum(n.running for n in dispatcher.nodes) == 2
        assert all(n.manager.queued_count == 0 for n in dispatcher.nodes)
        assert dispatcher.cluster_queue_depth == 4
        dispatcher.run(1.0, drain=60.0)
        assert dispatcher.completions == 6
        assert dispatcher.outstanding_work() == 0

    def test_exit_pulls_next_entry(self):
        sim, dispatcher = _pull_cluster(count=1, mpl=1)
        first = make_query(cpu=1.0, io=0.0, sql="oltp:q")
        second = make_query(cpu=1.0, io=0.0, sql="oltp:q")
        dispatcher.submit(first)
        dispatcher.submit(second)
        assert second.state is QueryState.SUBMITTED  # parked, unbound
        sim.run_until(1.5)  # first finishes at ~1.0 -> slot frees -> pull
        assert first.state is QueryState.COMPLETED
        assert second.state in (QueryState.RUNNING, QueryState.COMPLETED)

    def test_fastest_idle_node_pulls_first(self):
        sim = Simulator(seed=5)
        slow = ClusterNode(sim, name="slow", mpl=1, speed_factor=0.5)
        fast = ClusterNode(sim, name="fast", mpl=1)
        dispatcher = ClusterDispatcher(sim, [slow, fast], dispatch="pull")
        query = make_query(cpu=1.0, io=0.0, sql="oltp:q")
        dispatcher.submit(query)
        assert fast.running == 1
        assert slow.running == 0

    def test_down_and_draining_nodes_do_not_pull(self):
        sim, dispatcher = _pull_cluster(count=3)
        dispatcher.crash_node(dispatcher.node("n0"))
        dispatcher.drain_node(dispatcher.node("n1"))
        for _ in range(4):
            dispatcher.submit(make_query(cpu=1.0, io=0.0, sql="oltp:q"))
        assert dispatcher.node("n0").running == 0
        assert dispatcher.node("n1").running == 0
        assert dispatcher.node("n2").running == 1
        assert dispatcher.cluster_queue_depth == 3


class TestBoundedTaskQueue:
    def test_overflow_rejects_the_arriving_query(self):
        sim, dispatcher = _pull_cluster(count=1, mpl=1, max_queue_depth=1)
        queries = [make_query(cpu=5.0, io=0.0, sql="oltp:q") for _ in range(4)]
        for query in queries:
            dispatcher.submit(query)
        # 1 running + 1 queued; arrivals 3 and 4 are turned away
        assert dispatcher.rejections == 2
        assert [q.state for q in queries[2:]] == [QueryState.REJECTED] * 2
        assert queries[1].state is QueryState.SUBMITTED
        dispatcher.run(1.0, drain=60.0)
        assert dispatcher.completions + dispatcher.rejections == dispatcher.arrivals


class TestRecovery:
    def test_local_rejection_rebinds_elsewhere(self):
        sim = Simulator(seed=5)
        picky = ClusterNode(
            sim,
            name="a-picky",  # name sorts first so it would pull first
            admission=ThresholdAdmission(AdmissionPolicy(reject_over_cost=1.0)),
        )
        open_node = ClusterNode(sim, name="b-open")
        dispatcher = ClusterDispatcher(sim, [picky, open_node], dispatch="pull")
        heavy = make_query(cpu=5.0, io=0.0, sql="bi:q")
        dispatcher.submit(heavy)
        assert heavy.state is not QueryState.REJECTED
        assert open_node.running == 1
        assert dispatcher.metrics.replacements == 1
        dispatcher.run(0.0, drain=60.0)
        assert heavy.state is QueryState.COMPLETED

    def test_crash_evacuates_and_resubmits(self):
        sim, dispatcher = _pull_cluster(count=2, mpl=1)
        queries = [make_query(cpu=3.0, io=0.0, sql="oltp:q") for _ in range(4)]
        for query in queries:
            dispatcher.submit(query)
        victim = dispatcher.node("n0")
        assert victim.running == 1
        reclaimed = dispatcher.crash_node(victim)
        assert reclaimed == 1  # in-flight only; backlog was never bound
        dispatcher.run(1.0, drain=120.0)
        assert dispatcher.completions == 4
        assert dispatcher.resubmissions == 1
        assert dispatcher.outstanding_work() == 0

    def test_tick_grants_exclusion_amnesty(self):
        sim = Simulator(seed=5)
        picky = ClusterNode(
            sim,
            name="n0",
            mpl=1,
            admission=ThresholdAdmission(AdmissionPolicy(reject_over_cost=1.0)),
        )
        dispatcher = ClusterDispatcher(sim, [picky], dispatch="pull")
        heavy = make_query(cpu=5.0, io=0.0, sql="bi:q")
        dispatcher.submit(heavy)
        # the only node refused it; it waits with that node excluded
        assert dispatcher.cluster_queue_depth == 1
        assert dispatcher._excluded[heavy.query_id] == {"n0"}
        assert dispatcher.metrics.replacements == 1
        sim.run_until(1.5)  # the periodic sweep wipes exclusions...
        # ...so the tick offered it to n0 again (which re-refused it):
        # without amnesty the retry count could never grow
        assert dispatcher.metrics.replacements == 2
        assert dispatcher.cluster_queue_depth == 1


class TestMatcherUnit:
    def test_has_slot_requires_free_execution_slot(self):
        sim = Simulator(seed=5)
        node = ClusterNode(sim, name="n0", mpl=1)
        assert Matcher.has_slot(node)
        node.submit(make_query(cpu=5.0, io=0.0))
        assert not Matcher.has_slot(node)  # running == mpl

    def test_serving_order_is_speed_load_name(self):
        sim = Simulator(seed=5)
        nodes = [
            ClusterNode(sim, name="b", mpl=2),
            ClusterNode(sim, name="a", mpl=2),
            ClusterNode(sim, name="c", mpl=2, speed_factor=0.5),
        ]
        dispatcher = ClusterDispatcher(sim, nodes, dispatch="pull")
        order = [n.name for n in dispatcher.binding.matcher.hungry_nodes()]
        assert order == ["a", "b", "c"]


class TestPullDeterminism:
    def _digest(self, seed):
        from repro.parallel.digest import dispatcher_digest

        sim, dispatcher = _pull_cluster(seed=seed, count=3, mpl=2)
        rng = sim.rng("test:costs")
        for _ in range(40):
            dispatcher.submit(
                make_query(
                    cpu=float(rng.exponential(0.3)), io=0.2, sql="oltp:q"
                )
            )
        dispatcher.run(2.0, drain=60.0)
        return dispatcher_digest(dispatcher)

    def test_same_seed_same_digest(self):
        assert self._digest(9) == self._digest(9)

    def test_different_seed_different_digest(self):
        assert self._digest(9) != self._digest(10)


def _live_rank(node):
    return (-node.speed_factor, node.outstanding_work, node.name)


def _assert_index_is_fresh_scan(matcher, when):
    """The hungry-node index equals a from-scratch scan: members, ranks, order."""
    fresh = sorted((n for n in matcher.nodes if Matcher.has_slot(n)), key=_live_rank)
    assert matcher.hungry_nodes() == fresh, f"index order diverged at t={when}"
    assert matcher._hungry == {n: _live_rank(n) for n in fresh}, (
        f"index ranks diverged at t={when}"
    )


class TestHungryIndexEqualsFreshScan:
    """The matcher's index is kept by node notifications, never by scans.

    After every simulator event it must equal the fresh ranking of the
    nodes for which :meth:`Matcher.has_slot` holds — the check fails if
    any input of ``has_slot`` or of the rank changes without a capacity
    notification (engine start/exit, backlog, health, speed).
    """

    def test_faulted_churn_scenario_every_event(self, monkeypatch):
        built = []
        checked = []

        def check():
            _assert_index_is_fresh_scan(built[0].binding.matcher, sim.now)
            checked.append(sim.now)

        def capture(*args, **kwargs):
            dispatcher = build_cluster(*args, **kwargs)
            built.append(dispatcher)
            # a runtime slowdown and its undo on a live node
            n2 = dispatcher.node("n2")
            sim.schedule_at(2.0, lambda: dispatcher.degrade_node(n2, 0.5))
            sim.schedule_at(7.0, lambda: dispatcher.restore_node_speed(n2))
            return dispatcher

        monkeypatch.setattr(scenario, "build_cluster", capture)
        sim = CheckedSimulator(13, check)
        dispatcher = run_cluster_scenario(
            nodes=3, policy="cost", horizon=10.0, sim=sim, dispatch="pull",
            fault_plan=FaultPlan.node_kill("n1", at=3.0, recover_at=6.0),
        )
        assert dispatcher.dispatch == "pull"
        assert len(dispatcher.injector.fired) == 2
        assert dispatcher.completions > 100
        assert len(checked) == sim.events_fired > 1000

    def test_heterogeneous_64_node_matcher_scenario_every_event(self):
        nodes, horizon = 64, 3.0
        checked = []
        sim = CheckedSimulator(
            7, lambda: (_assert_index_is_fresh_scan(matcher, sim.now), checked.append(1))
        )
        dispatcher = build_cluster(
            sim, nodes=nodes, policy="cost", mpl=2, dispatch="pull",
            speed_factors=HETEROGENEOUS_SPEEDS,
        )
        matcher = dispatcher.binding.matcher
        generator = matcher_scenario(horizon=horizon, nodes=nodes).build(
            sim, dispatcher.submit, sessions=dispatcher.sessions
        )
        dispatcher.add_completion_listener(generator.notify_done)
        plan = churn_plan(nodes, horizon)
        degrade = (
            FaultEvent(0.5, "n1", FaultKind.DEGRADE, factor=0.3),
            FaultEvent(0.8, "n6", FaultKind.DEGRADE, factor=0.6),
            FaultEvent(1.7, "n1", FaultKind.RECOVER),
        )
        injector = FaultInjector(dispatcher)
        injector.arm(FaultPlan(tuple(plan.events) + degrade))
        sim.schedule_at(2.2, lambda: dispatcher.restore_node_speed(dispatcher.node("n6")))
        dispatcher.run(horizon, drain=horizon)
        kinds = {event.kind for event in injector.fired}
        assert {FaultKind.CRASH, FaultKind.DEGRADE, FaultKind.RECOVER} <= kinds
        assert dispatcher.completions > 500
        assert len(checked) == sim.events_fired > 5000

    def test_degrade_and_restore_reorder_an_idle_cluster(self):
        sim = Simulator(seed=5)
        nodes = [ClusterNode(sim, name=f"n{i}", mpl=2) for i in range(3)]
        dispatcher = ClusterDispatcher(sim, nodes, dispatch="pull")
        matcher = dispatcher.binding.matcher
        assert [n.name for n in matcher.hungry_nodes()] == ["n0", "n1", "n2"]
        dispatcher.degrade_node(nodes[0], 0.5)
        _assert_index_is_fresh_scan(matcher, sim.now)
        assert [n.name for n in matcher.hungry_nodes()] == ["n1", "n2", "n0"]
        dispatcher.restore_node_speed(nodes[0])
        _assert_index_is_fresh_scan(matcher, sim.now)
        assert [n.name for n in matcher.hungry_nodes()] == ["n0", "n1", "n2"]
        # the next arrival goes to the restored node
        dispatcher.submit(make_query(cpu=1.0, io=0.0, sql="oltp:q"))
        assert nodes[0].running == 1

    def test_node_local_delay_updates_the_rank(self):
        # A held (DELAYed) admission grows the node's backlog with no
        # engine start: only the manager's backlog ping re-ranks it.
        sim = Simulator(seed=5)
        holding = ClusterNode(
            sim,
            name="n0",
            mpl=2,
            admission=ThresholdAdmission(AdmissionPolicy(queue_over_cost=3.0)),
        )
        other = ClusterNode(sim, name="n1", mpl=2)
        dispatcher = ClusterDispatcher(sim, [holding, other], dispatch="pull")
        matcher = dispatcher.binding.matcher
        dispatcher.submit(make_query(cpu=5.0, io=0.0, sql="bi:q"))
        assert (holding.running, holding.queued) == (0, 1)
        _assert_index_is_fresh_scan(matcher, sim.now)
        assert matcher.hungry_nodes() == [other, holding]

    def test_suspend_resume_restart_on_a_cluster_node(self):
        # The controller's resume calls engine.start directly, bypassing
        # the manager's pump; only the engine's membership seam can tell
        # the index that the node's slot was taken back.
        checked = []
        sim = CheckedSimulator(
            5, lambda: (_assert_index_is_fresh_scan(matcher, sim.now), checked.append(1))
        )
        controller = SuspendResumeController(
            min_victim_work=0.0,
            resume_when_idle_below=1,
            pressure=lambda context: 1.0 <= context.now < 2.0,
        )
        nodes = [ClusterNode(sim, name=f"n{i}", mpl=1) for i in range(2)]
        nodes[0].manager.add_execution_controller(controller)
        dispatcher = ClusterDispatcher(sim, nodes, dispatch="pull")
        matcher = dispatcher.binding.matcher
        victim = make_query(cpu=5.0, io=0.0, priority=1, plan=staged_plan(), sql="bi:q")
        dispatcher.submit(victim)
        assert nodes[0].running == 1
        assert matcher.hungry_nodes() == [nodes[1]]
        dispatcher.run(4.0, drain=20.0)
        assert controller.suspend_events and controller.resume_events
        assert victim.state is QueryState.COMPLETED
        assert victim.suspend_count == 1
        assert checked
