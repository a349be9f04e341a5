"""Reference fair-share allocator: the oracle for the engine's fills.

The engine runs two production water-fills over pre-filtered rows
(:func:`repro.engine.resources.fill_two_resource` and
:func:`repro.engine.resources.fair_share_fill_vectorized`).  This module
keeps the original dict-based allocator they were derived from, plus
:func:`production_allocations`, an adapter that feeds the same requests
through both production fills so the tests can state every property
once against the oracle and once against each fill.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Mapping

import numpy as np

from repro.engine.resources import (
    ResourceKind,
    fair_share_fill_vectorized,
    fill_two_resource,
)


@dataclass
class ShareRequest:
    """One query's claim in a fair-share allocation round.

    ``demands`` maps a rate resource to the server-seconds of service per
    unit of query progress (i.e. the cost-vector seconds, possibly
    inflated by buffer-pool spill).  ``speed_cap`` bounds the achievable
    speed (1.0 = unloaded speed; a throttle of 50% halves it; a paused
    query has cap 0).
    """

    key: Hashable
    weight: float
    demands: Mapping[ResourceKind, float]
    speed_cap: float = 1.0

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"weight must be >= 0, got {self.weight}")
        if self.speed_cap < 0:
            raise ValueError(f"speed_cap must be >= 0, got {self.speed_cap}")

    @property
    def bottleneck_demand(self) -> float:
        """The largest per-progress demand (determines unloaded duration)."""
        return max(self.demands.values(), default=0.0)


@dataclass(frozen=True)
class Allocation:
    """Result of a fair-share round for one request."""

    speed: float
    usage: Mapping[ResourceKind, float]


def allocate_fair_shares_reference(
    requests: Iterable[ShareRequest],
    capacities: Mapping[ResourceKind, float],
) -> Dict[Hashable, Allocation]:
    """Reference weighted max-min fair allocation by progressive filling.

    This is the original, obviously-correct implementation: one
    constraint binds per round, so it runs O(active) rounds of O(active)
    work each.  It is the behavioural oracle for the engine's two
    production fills (see ``tests/engine/test_fair_share_equivalence.py``).
    """
    requests = list(requests)
    speeds: Dict[Hashable, float] = {}
    # Requests that demand nothing run at their cap (completed instantly
    # by the executor); zero-weight or zero-cap requests get speed 0.
    active: List[ShareRequest] = []
    for req in requests:
        positive = {k: v for k, v in req.demands.items() if v > 0}
        if not positive or req.weight == 0 or req.speed_cap == 0:
            speeds[req.key] = req.speed_cap if not positive and req.weight > 0 else 0.0
            continue
        active.append(ShareRequest(req.key, req.weight, positive, req.speed_cap))
        speeds[req.key] = 0.0

    _fill_reference_rounds(active, capacities, speeds)

    allocations: Dict[Hashable, Allocation] = {}
    for req in requests:
        speed = speeds.get(req.key, 0.0)
        usage = {kind: speed * demand for kind, demand in req.demands.items() if demand > 0}
        allocations[req.key] = Allocation(speed=speed, usage=usage)
    return allocations


def _fill_reference_rounds(
    active: List[ShareRequest],
    capacities: Mapping[ResourceKind, float],
    speeds: Dict[Hashable, float],
) -> None:
    """The reference progressive-filling rounds (one binding per round)."""
    headroom = {kind: float(cap) for kind, cap in capacities.items()}
    remaining = list(active)

    # Progressive filling: in each round grow all remaining speeds by
    # dt * weight, where dt is chosen so exactly one constraint binds.
    for _round in range(2 * len(active) + 2):
        if not remaining:
            break
        # Usage growth per unit dt on each resource.
        growth: Dict[ResourceKind, float] = {}
        for req in remaining:
            for kind, demand in req.demands.items():
                growth[kind] = growth.get(kind, 0.0) + req.weight * demand

        dt_best = float("inf")
        binding_resource = None
        binding_request = None
        for kind, rate in growth.items():
            if rate <= 0:
                continue
            dt = headroom.get(kind, 0.0) / rate
            if dt < dt_best - 1e-15:
                dt_best, binding_resource, binding_request = dt, kind, None
        for req in remaining:
            dt = (req.speed_cap - speeds[req.key]) / req.weight
            if dt < dt_best - 1e-15:
                dt_best, binding_resource, binding_request = dt, None, req

        dt_best = max(dt_best, 0.0)
        for req in remaining:
            grow = dt_best * req.weight
            speeds[req.key] += grow
            for kind, demand in req.demands.items():
                headroom[kind] = headroom.get(kind, 0.0) - grow * demand

        if binding_request is not None:
            remaining = [r for r in remaining if r.key != binding_request.key]
        elif binding_resource is not None:
            remaining = [r for r in remaining if binding_resource not in r.demands]
        else:  # all caps reached simultaneously
            break


def _allocations(
    requests: List[ShareRequest], speeds: Mapping[Hashable, float]
) -> Dict[Hashable, Allocation]:
    allocations: Dict[Hashable, Allocation] = {}
    for req in requests:
        speed = speeds.get(req.key, 0.0)
        usage = {kind: speed * demand for kind, demand in req.demands.items() if demand > 0}
        allocations[req.key] = Allocation(speed=speed, usage=usage)
    return allocations


def production_allocations(
    requests: Iterable[ShareRequest],
    capacities: Mapping[ResourceKind, float],
) -> Dict[str, Dict[Hashable, Allocation]]:
    """Allocate ``requests`` with each production fill, keyed by fill name.

    Trivial requests are settled the way the oracle settles them; the
    rest become ``[key, weight, cpu, disk, cap]`` rows (absent demands
    ``0.0``) — the shape the executor hands both fills.
    """
    requests = list(requests)
    cpu, disk = ResourceKind.CPU, ResourceKind.DISK
    trivial: Dict[Hashable, float] = {}
    rows: List[List] = []
    for req in requests:
        dc = req.demands.get(cpu, 0.0)
        dd = req.demands.get(disk, 0.0)
        dc, dd = (dc if dc > 0 else 0.0), (dd if dd > 0 else 0.0)
        if (dc == 0.0 and dd == 0.0) or req.weight == 0 or req.speed_cap == 0:
            free = dc == 0.0 and dd == 0.0 and req.weight > 0
            trivial[req.key] = req.speed_cap if free else 0.0
            continue
        rows.append([req.key, req.weight, dc, dd, req.speed_cap])
    cpu_cap, disk_cap = capacities[cpu], capacities[disk]

    scalar = dict(trivial)
    scalar.update({row[0]: 0.0 for row in rows})
    fill_two_resource(rows, scalar, cpu_cap, disk_cap)

    vector = dict(trivial)
    if rows:
        columns = np.array([row[1:] for row in rows], dtype=np.float64)
        speeds = fair_share_fill_vectorized(
            columns[:, 0], columns[:, 1], columns[:, 2], columns[:, 3],
            cpu_cap, disk_cap,
        )
        vector.update(zip((row[0] for row in rows), speeds.tolist()))
    return {
        "fill_two_resource": _allocations(requests, scalar),
        "fair_share_fill_vectorized": _allocations(requests, vector),
    }
