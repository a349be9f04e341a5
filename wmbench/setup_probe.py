"""Time one workload's set-up in a fresh process; print it as JSON.

Run by ``wmbench/run.py`` (several times per run, median reported):

    python3 wmbench/setup_probe.py --workload open_mixed --seed 11

The timed span starts before ``numpy`` and ``repro`` are imported and
ends once the job is built — spec, manager or cluster, and
``Scenario.build``, which pre-draws the arrivals.  For a workload swept
over worker processes it also covers starting the pool and importing
the task modules in every worker (the warm start).
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def warm_pool(workers: int, tasks):
    """Start the pool ``repro.parallel.run_tasks`` would start for
    ``tasks`` and wait until every worker has run its warm-import
    initializer; return the running pool."""
    from repro.parallel.runner import _make_pool
    from repro.parallel.tasks import runner_module

    modules = tuple(sorted({runner_module(task.runner) for task in tasks}))
    pool = _make_pool(workers, None, modules)
    for future in [pool.submit(int) for _ in range(workers)]:
        future.result()
    return pool


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    import numpy  # noqa: F401
    import repro  # noqa: F401
    from wmbench.workloads import workloads

    workload = workloads()[args.workload]
    job = workload.prepare(args.seed)
    pool = warm_pool(workload.workers, job.tasks) if workload.workers > 1 else None
    setup_s = time.perf_counter() - _T0
    if pool is not None:
        pool.shutdown(wait=True)
    print(json.dumps({"setup_s": setup_s}))


if __name__ == "__main__":
    main()
