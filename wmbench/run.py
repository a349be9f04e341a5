"""The simulator benchmark: one command, four workloads.

    python3 wmbench/run.py --workload closed_mpl --seed 3 --seconds 20 --trace 0

Run from the root of a repository checkout; ``src/repro`` is imported
from there, unmodified.  Workloads (``wmbench/workloads.json``):
``closed_mpl``, ``open_mixed``, ``cluster_pull``, ``tenant_matrix``.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``queries_per_s`` — simulated queries completed per host second of a
  run, set-up excluded; the median over the runs made within
  ``--seconds``.  The first two run on ``--seed``, every later one on a
  new input derived from it;
* ``setup_s`` — median over fresh processes of importing ``numpy`` and
  ``repro`` and building the job (:mod:`wmbench.setup_probe`);
* ``peak_rss_mb`` — peak resident memory of the process, or of its
  largest worker process.

``--trace 1`` runs the workload once untraced and once with every layer
boundary traced (:mod:`wmbench.tracer`) and reports the per-layer
metrics of :data:`wmbench.metrics.PER_LAYER`.

Correctness is checked in both modes: conservation and the event
budget on every run, equal digests for runs on one seed, the canonical
seed's digest against its pin in ``workloads.json``, and the traced
digest against the untraced one.  A run failing a check counts in
``failed``; any failure makes the exit status 1.  The last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the full result, with the machine
fingerprint, is also written to ``.wmbench_out/``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parents[1]


def _fail(message: str) -> int:
    print(f"wmbench: {message}", file=sys.stderr)
    return 2


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="wmbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no src/repro under {ROOT}: run from a repository checkout")
    # the script's own directory would shadow top-level module names
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        return _fail(f"imported repro from {repro.__file__}, not {ROOT / 'src'}")
    from wmbench.bench import run
    from wmbench.workloads import workloads

    available = workloads()
    if args.workload not in available:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(available)}")
    return run(available[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
