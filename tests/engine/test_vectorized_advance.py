"""Property: the engine's solve paths agree end to end on randomized
small workloads.

The engine has two hot-path switches:

* the **fair-share fill** switches from the exact scalar fill to the
  numpy fill at ``executor._VECTOR_FILL_MIN_RUNNING`` live queries — the
  numpy fill reorders float sums, so it is pinned to solver tolerance
  (see ``test_fair_share_equivalence``), and here end-to-end completion
  times must agree to tolerance with exactly equal outcome counts;
* **same-timestamp batching** (the simulator's batch hooks) coalesces
  the solves of one instant — it must be observationally transparent,
  so a run whose simulator ignores batch hooks has the same bits.

Workloads include same-timestamp submission collisions (draws land on a
coarse time grid), zero-work queries (finish instantly inside start)
and heavily skewed demands.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import executor
from repro.engine.executor import ExecutionEngine
from repro.engine.query import QueryState
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from tests.conftest import make_query

_MACHINE = MachineSpec(cpu_capacity=4.0, disk_capacity=2.0, memory_mb=65536.0)

#: fill cutovers: the scalar fill at every size, the numpy fill at every size
SCALAR_FILL = 10**9
VECTOR_FILL = 1

# (submit-grid step, cpu seconds, io seconds, weight); the coarse grid
# forces same-timestamp submission collisions, and 0.0 demands make
# zero-work queries that complete instantly inside start().
job_strategy = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=2.0)),
    st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=2.0)),
    st.floats(min_value=0.1, max_value=10.0),
)


class _UnbatchedSimulator(Simulator):
    """A simulator that ignores batch hooks: every event solves alone."""

    def add_batch_hooks(self, enter, exit) -> None:
        pass


def _run(
    jobs, fill_cutover: int, sim_class=Simulator
) -> Tuple[List[Tuple[int, float]], str]:
    """Run ``jobs`` on a fresh engine; return completions and a digest.

    Completions are ``(job index, end time)`` in completion order; the
    digest hashes the full-precision stream the way the perf scenarios
    do, so "digests equal" means bit-identical trajectories.
    """
    sim = sim_class(seed=11)
    engine = ExecutionEngine(sim, _MACHINE)
    completions: List[Tuple[int, float]] = []
    index_of = {}
    engine.on_exit(
        lambda query, outcome: completions.append(
            (index_of[query.query_id], sim.now)
        )
    )

    def start(job_index: int, cpu: float, io: float, weight: float) -> None:
        query = make_query(cpu=cpu, io=io, mem=1.0)
        query.transition(QueryState.SUBMITTED)
        query.submit_time = sim.now
        index_of[query.query_id] = job_index
        engine.start(query, weight=weight)

    for job_index, (step, cpu, io, weight) in enumerate(jobs):
        sim.schedule(
            step * 0.25,
            lambda i=job_index, c=cpu, d=io, w=weight: start(i, c, d, w),
            label=f"submit:{job_index}",
        )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(executor, "_VECTOR_FILL_MIN_RUNNING", fill_cutover)
        sim.run_until(10_000.0)
    assert len(completions) == len(jobs), "every query must complete"

    hasher = hashlib.sha256()
    for job_index, end in completions:
        hasher.update(struct.pack("<qd", job_index, end))
    return completions, hasher.hexdigest()


@given(jobs=st.lists(job_strategy, min_size=1, max_size=24))
@settings(max_examples=40, deadline=None)
def test_vector_fill_matches_scalar_to_tolerance(jobs):
    """An engine on the numpy fill at every size completes the same
    queries at times equal to the scalar-fill engine within solver
    tolerance."""
    scalar, _ = _run(jobs, SCALAR_FILL)
    vector, _ = _run(jobs, VECTOR_FILL)
    assert len(vector) == len(scalar)
    assert sorted(i for i, _ in vector) == sorted(i for i, _ in scalar)
    end_scalar = dict(scalar)
    for job_index, end in vector:
        assert math.isclose(
            end, end_scalar[job_index], rel_tol=1e-6, abs_tol=1e-6
        ), f"job {job_index}: vectorized end {end} vs scalar {end_scalar[job_index]}"


def test_same_timestamp_collision_batch_is_bit_identical():
    """A full same-instant burst (the batch-hook path) has the same bits
    as the same run with every event solved on its own."""
    jobs = [(0, 0.5 + 0.01 * i, 0.25 + 0.02 * i, 1.0 + 0.1 * i) for i in range(20)]
    jobs += [(0, 0.0, 0.0, 1.0), (1, 0.0, 0.0, 2.0)]  # zero-work collisions
    for cutover in (SCALAR_FILL, executor._VECTOR_FILL_MIN_RUNNING):
        unbatched, unbatched_digest = _run(jobs, cutover, _UnbatchedSimulator)
        batched, batched_digest = _run(jobs, cutover)
        assert batched == unbatched
        assert batched_digest == unbatched_digest
