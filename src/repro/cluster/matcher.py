"""The matcher: late binding of queued work to node capacity.

This is the pull counterpart of the placement policies (DIRAC's
MatcherHandler): instead of the dispatcher choosing a node when a
request *arrives*, a node asks for work at the moment it has a free
execution slot — when a running query exits, when the node is
(re)activated, and on every dispatcher tick (the pilot's poll cadence).
Work therefore binds to capacity as late as possible: a request waiting
in the :class:`~repro.cluster.taskqueue.TaskQueue` is never committed
to a node that is busy, degraded away from it, or about to crash.

Matching checks, per (node, entry) pair:

* **health** — only UP nodes pull (``NodeHealth.accepts_placements``);
* **slot headroom** — the node must have a free execution slot
  (``running < mpl``) *and* be under its ``max_outstanding`` ceiling;
* **capabilities** — the entry's requirement tags must be covered by
  the node's capability set (which includes its static tags plus the
  derived ``speed:full`` tag, so degraded nodes stop matching entries
  that demand full speed);
* **exclusions** — a node that locally refused a request never pulls
  that same request again (the dispatcher's per-query exclusion set).

When several idle nodes compete for the head of the queue the fastest
one wins (``speed_factor`` descending, then fewest outstanding, then
name) — deterministic, so pull dispatch digests are seed-stable.

The matcher never scans the cluster for free slots.  It keeps a
*hungry-node index* — node → :attr:`~repro.cluster.node.ClusterNode.pull_rank`
for every node with a free slot — maintained by the nodes' capacity
notifications (:meth:`~repro.cluster.node.ClusterNode.on_capacity_change`),
which fire on every backlog change, engine start or exit, health
transition and speed change.  A pull cycle orders only the indexed
nodes; because node names are unique the rank keys are too, so the
order is exactly that of a fresh scan sorted by the ranking rule.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.cluster.node import ClusterNode, PullRank
from repro.cluster.taskqueue import TaskEntry, TaskQueue
from repro.engine.query import Query

#: Callback the dispatcher provides to commit one match (records the
#: placement and submits to the node's manager).
PlaceFn = Callable[[Query, ClusterNode], None]
#: Per-(query, node) exclusion test — True means "this node refused it".
ExclusionFn = Callable[[Query, ClusterNode], bool]


class Matcher:
    """Serves :class:`TaskQueue` entries to nodes with free slots."""

    def __init__(
        self,
        nodes: Sequence[ClusterNode],
        queue: TaskQueue,
        place: PlaceFn,
        excluded: Optional[ExclusionFn] = None,
    ) -> None:
        self.nodes = list(nodes)
        self.queue = queue
        self._place = place
        self._excluded = excluded or (lambda query, node: False)
        self.matches = 0
        self._serving = False  # re-entrancy guard: place() can re-route
        #: The hungry-node index: node -> pull rank, for nodes with a
        #: free slot; kept current by the nodes' capacity notifications.
        self._hungry: Dict[ClusterNode, PullRank] = {}
        for node in self.nodes:
            node.on_capacity_change(self._on_capacity_change)
            if node.pull_rank is not None:
                self._hungry[node] = node.pull_rank

    # ------------------------------------------------------------------
    # capacity
    # ------------------------------------------------------------------
    @staticmethod
    def has_slot(node: ClusterNode) -> bool:
        """A free execution slot: the node could *start* work right now.

        The defining predicate, read from live node state; the index
        holds exactly the nodes for which it is true.
        """
        return (
            node.health.accepts_placements
            and node.running < node.mpl
            and node.outstanding_work < node.max_outstanding
        )

    def _on_capacity_change(self, node: ClusterNode, accepting_flipped: bool) -> None:
        rank = node.pull_rank
        if rank is None:
            self._hungry.pop(node, None)
        else:
            self._hungry[node] = rank

    # ------------------------------------------------------------------
    # pull cycles
    # ------------------------------------------------------------------
    def pull(self, node: ClusterNode) -> int:
        """One node pulls work until its slots or the queue run dry.

        Called the moment the node frees a slot (engine exit) or comes
        (back) up.  Returns the number of entries bound.
        """
        if self._serving:
            return 0
        self._serving = True
        try:
            return self._serve(node)
        finally:
            self._serving = False

    def offer(self) -> int:
        """Serve every node that currently has a free slot.

        Called on arrival (an idle pilot's match request is already
        pending, so new work binds immediately) and on the periodic
        tick (the poll cadence that catches anything missed).  Nodes
        are re-ranked after every binding so the fastest, least-loaded
        node always takes the next entry.  A node that matches nothing
        changes no state, so the best-ranked node is tried first and
        the full ranking is built only when it comes back empty.
        """
        if self._serving:
            return 0
        self._serving = True
        placed = 0
        hungry = self._hungry
        rank = hungry.__getitem__
        try:
            while len(self.queue) and hungry:
                if self._serve_one(min(hungry, key=rank)):
                    placed += 1
                    continue
                for node in sorted(hungry, key=rank)[1:]:
                    if self._serve_one(node):
                        placed += 1
                        break
                else:
                    break
        finally:
            self._serving = False
        return placed

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _serve(self, node: ClusterNode) -> int:
        placed = 0
        while self._serve_one(node):
            placed += 1
        return placed

    def _serve_one(self, node: ClusterNode) -> bool:
        if node not in self._hungry:
            return False
        entry: Optional[TaskEntry] = self.queue.match(
            node.capabilities,
            blocked=lambda query: self._excluded(query, node),
        )
        if entry is None:
            return False
        self.matches += 1
        self._place(entry.query, node)
        return True

    def hungry_nodes(self) -> List[ClusterNode]:
        """Nodes with a free slot, in serving order (reads the index)."""
        return sorted(self._hungry, key=self._hungry.__getitem__)
