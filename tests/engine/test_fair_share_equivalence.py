"""Property-based equivalence: the production fills vs the reference.

The engine runs two water-fills: the exact scalar
:func:`fill_two_resource` for small running sets and the numpy
:func:`fair_share_fill_vectorized` above the size cutover.  These tests
pin both to the :func:`allocate_fair_shares_reference` oracle kept in
``tests/engine/fair_share_oracle.py`` and to the fair-share invariants,
across generated request mixes well beyond the cutover: the scalar fill
must match the oracle bit for bit, the vector fill within ``1e-9``.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.engine.resources import (
    ResourceKind,
    fair_share_fill_vectorized,
    fill_two_resource,
)

from tests.engine.fair_share_oracle import (
    ShareRequest,
    allocate_fair_shares_reference,
    production_allocations,
)

SPEED_TOL = 1e-9

demand_strategy = st.fixed_dictionaries(
    {},
    optional={
        ResourceKind.CPU: st.floats(min_value=0.0, max_value=50.0),
        ResourceKind.DISK: st.floats(min_value=0.0, max_value=50.0),
    },
)

request_strategy = st.builds(
    lambda weight, demands, cap: (weight, demands, cap),
    weight=st.one_of(
        st.just(0.0), st.floats(min_value=1e-6, max_value=100.0)
    ),
    demands=demand_strategy,
    cap=st.one_of(
        st.just(0.0), st.floats(min_value=1e-6, max_value=10.0)
    ),
)

capacity_strategy = st.fixed_dictionaries(
    {
        ResourceKind.CPU: st.floats(min_value=0.1, max_value=64.0),
        ResourceKind.DISK: st.floats(min_value=0.1, max_value=64.0),
    }
)


def _build(rows):
    return [
        ShareRequest(key=i, weight=w, demands=d, speed_cap=c)
        for i, (w, d, c) in enumerate(rows)
    ]


@given(
    rows=st.lists(request_strategy, min_size=0, max_size=60),
    capacities=capacity_strategy,
)
@settings(max_examples=200, deadline=None)
def test_optimized_matches_reference(rows, capacities):
    """Scalar fill: bit for bit; vector fill: within solver tolerance."""
    requests = _build(rows)
    fills = production_allocations(requests, capacities)
    want = allocate_fair_shares_reference(requests, capacities)
    scalar = fills["fill_two_resource"]
    vector = fills["fair_share_fill_vectorized"]
    assert set(scalar) == set(vector) == set(want)
    for key, ref_alloc in want.items():
        assert scalar[key].speed == ref_alloc.speed, (
            f"request {key}: scalar speed {scalar[key].speed} vs "
            f"reference {ref_alloc.speed}"
        )
        assert vector[key].speed == pytest.approx(
            ref_alloc.speed, abs=SPEED_TOL, rel=SPEED_TOL
        ), (
            f"request {key}: vector speed {vector[key].speed} vs "
            f"reference {ref_alloc.speed}"
        )


@given(
    rows=st.lists(request_strategy, min_size=0, max_size=40),
    capacities=capacity_strategy,
)
@settings(max_examples=200, deadline=None)
def test_fair_share_invariants(rows, capacities):
    requests = _build(rows)
    for fill, allocations in production_allocations(requests, capacities).items():
        # Capacity: total usage never exceeds any resource's capacity.
        for kind, capacity in capacities.items():
            total = sum(a.usage.get(kind, 0.0) for a in allocations.values())
            assert total <= capacity * (1 + 1e-9) + 1e-9, fill

        saturated = {
            kind
            for kind, capacity in capacities.items()
            if sum(a.usage.get(kind, 0.0) for a in allocations.values())
            >= capacity * (1 - 1e-6)
        }
        for req in requests:
            alloc = allocations[req.key]
            # Cap: no request exceeds its speed cap.
            assert alloc.speed <= req.speed_cap * (1 + 1e-9) + 1e-9, fill
            assert alloc.speed >= 0.0, fill
            # Max-min: a non-trivial request below its cap must be
            # blocked by a saturated resource it demands.
            positive = {k for k, v in req.demands.items() if v > 0}
            if (
                positive
                and req.weight > 0
                and req.speed_cap > 0
                and alloc.speed < req.speed_cap * (1 - 1e-6)
            ):
                assert positive & saturated, (
                    f"{fill}: request {req.key} runs below cap with no "
                    f"saturated resource among its demands"
                )


@given(
    rows=st.lists(request_strategy, min_size=0, max_size=40),
    capacities=capacity_strategy,
)
@settings(max_examples=100, deadline=None)
def test_low_level_speeds_match_allocations(rows, capacities):
    """Usage totals the executor accumulates from the fills' speeds
    match the oracle's per-request usage."""
    requests = _build(rows)
    want = allocate_fair_shares_reference(requests, capacities)
    for fill, allocations in production_allocations(requests, capacities).items():
        for kind in capacities:
            got = sum(
                allocations[req.key].speed * req.demands.get(kind, 0.0)
                for req in requests
                if req.demands.get(kind, 0.0) > 0
            )
            expected = sum(a.usage.get(kind, 0.0) for a in want.values())
            assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-9), fill


active_row_strategy = st.builds(
    lambda weight, dc, dd, cap: (weight, dc, dd, cap),
    weight=st.floats(min_value=1e-6, max_value=100.0),
    dc=st.floats(min_value=0.0, max_value=50.0),
    dd=st.floats(min_value=0.0, max_value=50.0),
    cap=st.floats(min_value=1e-6, max_value=10.0),
)


@given(
    rows=st.lists(active_row_strategy, min_size=1, max_size=60),
    cpu_cap=st.floats(min_value=0.1, max_value=64.0),
    disk_cap=st.floats(min_value=0.1, max_value=64.0),
)
@settings(max_examples=200, deadline=None)
def test_vector_fill_matches_exact_fill(rows, cpu_cap, disk_cap):
    """The numpy water-fill agrees with the exact scalar fill to solver
    tolerance on every active request (the executor's two solve paths)."""
    # The executor only feeds rows with a positive bottleneck demand.
    rows = [r for r in rows if max(r[1], r[2]) > 1e-6]
    assume(rows)
    active = [[i, w, dc, dd, cap] for i, (w, dc, dd, cap) in enumerate(rows)]
    exact = {row[0]: 0.0 for row in active}
    fill_two_resource(
        [list(row) for row in active], exact, cpu_cap, disk_cap
    )
    vectorized = fair_share_fill_vectorized(
        np.array([r[0] for r in rows]),
        np.array([r[1] for r in rows]),
        np.array([r[2] for r in rows]),
        np.array([r[3] for r in rows]),
        cpu_cap,
        disk_cap,
    )
    for i in range(len(rows)):
        assert math.isclose(
            float(vectorized[i]), exact[i], rel_tol=1e-9, abs_tol=1e-9
        ), f"row {i}: vectorized {vectorized[i]} vs exact {exact[i]}"


def test_small_sets_are_bit_identical_to_reference():
    """The scalar fill reproduces the reference bit for bit (seeded
    trajectories depend on it)."""
    capacities = {ResourceKind.CPU: 4.0, ResourceKind.DISK: 2.0}
    requests = [
        ShareRequest(
            key=i,
            weight=0.5 + 0.25 * i,
            demands={
                ResourceKind.CPU: 0.3 + 0.1 * i,
                ResourceKind.DISK: 1.0 / (i + 1),
            },
            speed_cap=0.2 + 0.15 * i,
        )
        for i in range(12)
    ]
    got = production_allocations(requests, capacities)["fill_two_resource"]
    want = allocate_fair_shares_reference(requests, capacities)
    for key in want:
        assert got[key].speed == want[key].speed  # exact, not approx
        assert got[key].usage == want[key].usage
