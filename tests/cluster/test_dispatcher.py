"""ClusterDispatcher unit tests: routing, queueing, re-placement."""

import pytest

from repro.cluster import ClusterDispatcher, ClusterNode, make_policy
from repro.cluster.scenario import CLUSTER_SLAS
from repro.engine.query import QueryState
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError, SimulationBudgetExceeded

from tests.conftest import make_query


def _cluster(seed=5, count=3, policy="least", mpl=2, max_outstanding=2, **kwargs):
    sim = Simulator(seed=seed)
    nodes = [
        ClusterNode(sim, name=f"n{i}", mpl=mpl, max_outstanding=max_outstanding)
        for i in range(count)
    ]
    dispatcher = ClusterDispatcher(
        sim,
        nodes,
        placement=make_policy(policy, slas=CLUSTER_SLAS),
        slas=CLUSTER_SLAS,
        **kwargs,
    )
    return sim, dispatcher


class TestConstruction:
    def test_rejects_empty_cluster(self):
        with pytest.raises(ConfigurationError):
            ClusterDispatcher(Simulator(seed=1), [])

    def test_rejects_duplicate_names(self):
        sim = Simulator(seed=1)
        nodes = [ClusterNode(sim, name="n0"), ClusterNode(sim, name="n0")]
        with pytest.raises(ConfigurationError):
            ClusterDispatcher(sim, nodes)

    def test_rejects_negative_queue_depth(self):
        sim = Simulator(seed=1)
        with pytest.raises(ConfigurationError):
            ClusterDispatcher(
                sim, [ClusterNode(sim, name="n0")], max_queue_depth=-1
            )

    def test_node_lookup(self):
        _, dispatcher = _cluster()
        assert dispatcher.node("n1").name == "n1"
        with pytest.raises(KeyError):
            dispatcher.node("nope")


class TestRouting:
    def test_arrivals_place_and_complete(self):
        sim, dispatcher = _cluster()
        queries = [make_query(cpu=0.2, io=0.1, sql="oltp:q") for _ in range(6)]
        for query in queries:
            dispatcher.submit(query)
        dispatcher.run(1.0, drain=60.0)
        assert dispatcher.arrivals == 6
        assert dispatcher.completions == 6
        assert all(q.state is QueryState.COMPLETED for q in queries)
        assert dispatcher.outstanding_work() == 0

    def test_saturated_cluster_queues_then_drains(self):
        sim, dispatcher = _cluster(count=2, max_outstanding=1)
        queries = [make_query(cpu=1.0, io=0.0, sql="oltp:q") for _ in range(5)]
        for query in queries:
            dispatcher.submit(query)
        # 2 placed (one per node), 3 wait at the cluster level
        assert dispatcher.cluster_queue_depth == 3
        dispatcher.run(1.0, drain=120.0)
        assert dispatcher.completions == 5
        assert dispatcher.cluster_queue_depth == 0

    def test_bounded_queue_rejects_overflow(self):
        sim, dispatcher = _cluster(count=1, max_outstanding=1, max_queue_depth=1)
        queries = [make_query(cpu=1.0, io=0.0, sql="oltp:q") for _ in range(4)]
        for query in queries:
            dispatcher.submit(query)
        assert dispatcher.rejections == 2  # 1 placed + 1 queued + 2 rejected
        rejected = [q for q in queries if q.state is QueryState.REJECTED]
        assert len(rejected) == 2
        dispatcher.run(1.0, drain=60.0)
        assert dispatcher.completions == 2
        assert dispatcher.completions + dispatcher.rejections == dispatcher.arrivals

    def test_rejection_notifies_listeners(self):
        seen = []
        sim, dispatcher = _cluster(count=1, max_outstanding=1, max_queue_depth=0)
        dispatcher.add_completion_listener(seen.append)
        for _ in range(3):
            dispatcher.submit(make_query(cpu=1.0, io=0.0, sql="oltp:q"))
        assert dispatcher.rejections == 2
        assert len([q for q in seen if q.state is QueryState.REJECTED]) == 2


class TestNodeLocalRejectionReplacement:
    def test_local_rejection_reroutes_to_another_node(self):
        from repro.admission.threshold import ThresholdAdmission
        from repro.core.policy import AdmissionPolicy

        sim = Simulator(seed=5)
        # n0 rejects anything costing > 1 device-second; n1 takes all
        picky = ClusterNode(
            sim,
            name="n0",
            admission=ThresholdAdmission(AdmissionPolicy(reject_over_cost=1.0)),
        )
        open_node = ClusterNode(sim, name="n1")
        dispatcher = ClusterDispatcher(
            sim, [picky, open_node], placement=make_policy("round-robin")
        )
        heavy = make_query(cpu=5.0, io=0.0, sql="bi:q")
        dispatcher.submit(heavy)  # round-robin tries n0 first
        assert heavy.state is not QueryState.REJECTED
        assert dispatcher.metrics.replacements == 1
        assert open_node.placed_count == 1
        assert picky.outstanding_work == 0
        dispatcher.run(0.0, drain=60.0)
        assert heavy.state is QueryState.COMPLETED
        # the node-local manager recorded nothing for the reclaimed query
        assert picky.manager.rejected_count == 0

    def test_rejected_everywhere_falls_to_cluster_queue(self):
        from repro.admission.threshold import ThresholdAdmission
        from repro.core.policy import AdmissionPolicy

        sim = Simulator(seed=5)
        nodes = [
            ClusterNode(
                sim,
                name=f"n{i}",
                admission=ThresholdAdmission(AdmissionPolicy(reject_over_cost=1.0)),
            )
            for i in range(2)
        ]
        dispatcher = ClusterDispatcher(
            sim, nodes, placement=make_policy("round-robin")
        )
        heavy = make_query(cpu=5.0, io=0.0, sql="bi:q")
        dispatcher.submit(heavy)
        # both nodes refused; the query waits at the cluster level
        assert dispatcher.cluster_queue_depth == 1
        assert heavy.state is QueryState.SUBMITTED


class TestHeadOfLineBlocking:
    def test_picky_head_does_not_starve_placeable_tail(self):
        """Regression: a queued head no placement will take used to stop
        the drain scan cold, starving requests behind it that any node
        would have accepted."""
        from repro.cluster.placement import PlacementPolicy

        class NoBiPlacement(PlacementPolicy):
            # a custom policy may return None for work it won't place
            def choose(self, query, candidates):
                if query.sql.startswith("bi:"):
                    return None
                return candidates[0] if candidates else None

        sim = Simulator(seed=5)
        node = ClusterNode(sim, name="n0", mpl=1, max_outstanding=1)
        dispatcher = ClusterDispatcher(sim, [node], placement=NoBiPlacement())
        blocker = make_query(cpu=5.0, io=0.0, sql="oltp:first")
        picky = make_query(cpu=1.0, io=0.0, sql="bi:head")
        tail = make_query(cpu=1.0, io=0.0, sql="oltp:tail")
        dispatcher.submit(blocker)  # saturates the node
        dispatcher.submit(picky)  # queues; never placeable
        dispatcher.submit(tail)  # queues behind the picky head
        assert dispatcher.cluster_queue_depth == 2
        dispatcher.run(10.0, drain=60.0)
        # the tail was placed and completed even though the head never was
        assert tail.state is QueryState.COMPLETED
        assert picky.state is QueryState.SUBMITTED
        assert dispatcher.cluster_queue_depth == 1
        assert dispatcher.completions == 2

    def test_blocked_head_keeps_its_queue_position(self):
        from repro.cluster.placement import PlacementPolicy

        class NoBiPlacement(PlacementPolicy):
            def choose(self, query, candidates):
                if query.sql.startswith("bi:"):
                    return None
                return candidates[0] if candidates else None

        sim = Simulator(seed=5)
        node = ClusterNode(sim, name="n0", mpl=1, max_outstanding=1)
        dispatcher = ClusterDispatcher(sim, [node], placement=NoBiPlacement())
        dispatcher.submit(make_query(cpu=50.0, io=0.0, sql="oltp:run"))
        picky = make_query(cpu=1.0, io=0.0, sql="bi:head")
        tail = make_query(cpu=1.0, io=0.0, sql="oltp:tail")
        dispatcher.submit(picky)
        dispatcher.submit(tail)
        dispatcher.binding.drain()  # scan while the node is saturated
        assert dispatcher.binding.queued_queries() == [picky, tail]


class TestDraining:
    def test_draining_node_finishes_but_takes_nothing_new(self):
        sim, dispatcher = _cluster(count=2, policy="round-robin")
        first = make_query(cpu=2.0, io=0.0, sql="oltp:q")
        dispatcher.submit(first)  # -> n0
        victim = dispatcher.node("n0")
        assert victim.outstanding_work == 1
        dispatcher.drain_node(victim)
        placed_before = victim.placed_count
        for _ in range(4):
            dispatcher.submit(make_query(cpu=0.5, io=0.0, sql="oltp:q"))
        assert victim.placed_count == placed_before
        dispatcher.run(0.0, drain=60.0)
        assert first.state is QueryState.COMPLETED
        assert dispatcher.completions == 5


class TestRunBudget:
    """``ClusterDispatcher.run`` passes ``max_events`` to the simulator."""

    @pytest.mark.parametrize("dispatch", ["push", "pull"])
    def test_tiny_budget_raises_and_still_shuts_down(self, dispatch):
        sim, dispatcher = _cluster(dispatch=dispatch)
        for _ in range(6):
            dispatcher.submit(make_query(cpu=1.0, io=0.5, sql="oltp:q"))
        with pytest.raises(SimulationBudgetExceeded) as excinfo:
            dispatcher.run(10.0, drain=10.0, max_events=5)
        assert excinfo.value.budget == 5
        # shutdown() ran: no periodic process is left armed
        assert dispatcher._ticker._stopped
        for node in dispatcher.nodes:
            assert node._heartbeat_proc._stopped
            assert node.manager._ticker._stopped

    def test_sufficient_budget_changes_nothing(self):
        outcomes = []
        for budget in (None, 100_000):
            sim, dispatcher = _cluster(dispatch="pull")
            for _ in range(6):
                dispatcher.submit(make_query(cpu=1.0, io=0.5, sql="oltp:q"))
            dispatcher.run(10.0, drain=10.0, max_events=budget)
            outcomes.append((dispatcher.completions, sim.events_fired, sim.now))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 6
