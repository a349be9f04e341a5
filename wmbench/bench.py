"""Measurement, checks and reporting behind ``wmbench/run.py``."""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import multiprocessing
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from wmbench.metrics import END_TO_END, PER_LAYER, fingerprint, fn_metrics, layer_metrics
from wmbench.tracer import Tracer
from wmbench.workloads import JobResult, Workload

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".wmbench_out"

#: Timed runs per measurement, at least: the first two run on one seed
#: and are the determinism check.
MIN_REPS = 2
#: Seed offset between the inputs of successive timed runs.
INPUT_STRIDE = 1_000_000
#: Fresh processes timed for ``setup_s``.
SETUP_PROBES = 7
#: Seconds a child process may take before the run is abandoned.
CHILD_TIMEOUT_S = 60


def reap_children() -> None:
    """Wait for every worker process started so far to end."""
    for child in multiprocessing.active_children():
        child.join(CHILD_TIMEOUT_S)


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_seconds(workload: str, seed: int) -> List[float]:
    """Set-up host seconds of the workload in fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "wmbench" / "setup_probe.py"),
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


class Checks:
    """Counts runs attempted and runs failing a correctness check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, what: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
            for p in problems:
                print(f"CHECK FAILED {what}: {p}")


@dataclass
class Timed:
    """One job: set-up and run host seconds, its result and the job."""

    setup_s: float
    run_s: float
    result: JobResult
    job: object = None


def run_job(workload, seed: int, workers: Optional[int] = None, tracer=None) -> Timed:
    """Prepare and execute one job, timing each part separately.

    With a ``tracer`` both parts run traced.  A job that raises is a
    failed run: its traceback becomes the result's problem.
    """
    gc.collect()
    start = ready = time.perf_counter()
    try:
        with tracer.installed() if tracer is not None else contextlib.nullcontext():
            job = workload.prepare(seed, workers=workers)
            ready = time.perf_counter()
            job.execute()
        done = time.perf_counter()
        result = job.result()
    except Exception:
        done, job = time.perf_counter(), None
        result = JobResult(0, 0, "", [traceback.format_exc(limit=-4)])
    finally:
        reap_children()
    return Timed(ready - start, done - ready, result, job)


def measure(workload, seed: int, seconds: float, checks: Checks) -> Dict[str, object]:
    """End-to-end metrics with tracing off."""
    canon = run_job(workload, workload.canonical_seed).result
    problems = list(canon.problems)
    if canon.digest != workload.pin:
        problems.append(
            f"digest {canon.digest[:16]}… != pin {workload.pin[:16] or '<none>'}…"
        )
    checks.record(f"seed {workload.canonical_seed} (canonical)", problems)

    # Host time per query differs between seeds by up to 2x on open_mixed
    # (the load each seed draws), so every timed run after the first two
    # takes a new input derived from ``seed``.
    rates: List[float] = []
    first_digest = None
    deadline = time.perf_counter() + seconds
    for rep in itertools.count(1):
        if rep > MIN_REPS and time.perf_counter() >= deadline:
            break
        run_seed = seed + max(rep - MIN_REPS, 0) * INPUT_STRIDE
        timed = run_job(workload, run_seed)
        result = timed.result
        problems = list(result.problems)
        if rep == 1:
            first_digest = result.digest
        elif rep == 2 and result.digest != first_digest:
            problems.append(f"digest {result.digest[:16]}… != first run's {first_digest[:16]}…")
        checks.record(f"seed {run_seed} run {rep}", problems)
        if problems:
            continue
        rates.append(result.queries / timed.run_s)
        print(
            f"run {rep} seed {run_seed}: {result.queries} queries, {result.events} events "
            f"in {timed.run_s:.3f} s = {rates[-1]:.1f} queries/s, digest {result.digest[:16]}…"
        )
    if not rates:
        raise SystemExit("wmbench: no run passed its checks; nothing to measure")
    rss = peak_rss_mb()
    setups = setup_seconds(workload.name, seed)
    print(f"queries_per_s over {len(rates)} runs: median {statistics.median(rates):.1f}, "
          f"min {min(rates):.1f}, max {max(rates):.1f}")
    return {
        "metrics": {
            "queries_per_s": statistics.median(rates),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
        },
        "samples": {"queries_per_s": rates, "setup_s": setups},
        "digest": first_digest,
    }


def trace(workload, seed: int, checks: Checks) -> Dict[str, object]:
    """Per-layer metrics from one traced run, against an untraced one.

    Both runs are serial and both time set-up plus run: forked workers
    would inherit the wrappers and take their spans with them.  For a
    workload swept over workers, an untraced parallel run supplies the
    sweep telemetry and must digest like the serial one.
    """
    extra = {"parallel.efficiency": 0.0, "parallel.retried_shards": 0.0,
             "parallel.stragglers": 0.0}
    plain = run_job(workload, seed, workers=1)
    checks.record(f"seed {seed} untraced", plain.result.problems)
    if workload.workers > 1:
        par = run_job(workload, seed)
        problems = list(par.result.problems)
        if par.result.digest != plain.result.digest:
            problems.append(
                f"digest {par.result.digest[:16]}… at {workload.workers} workers "
                f"!= serial {plain.result.digest[:16]}…"
            )
        checks.record(f"seed {seed} untraced, {workload.workers} workers", problems)
        if par.job is not None:
            sweep = par.job.sweep
            extra = {
                "parallel.efficiency": plain.run_s / (workload.workers * par.run_s),
                "parallel.retried_shards": float(sweep.retried_shards),
                "parallel.stragglers": float(len(sweep.stragglers)),
            }

    tracer = Tracer()
    traced = run_job(workload, seed, workers=1, tracer=tracer)
    problems = list(traced.result.problems)
    if traced.result.digest != plain.result.digest:
        problems.append(
            f"traced digest {traced.result.digest[:16]}… != "
            f"untraced {plain.result.digest[:16]}…"
        )
    checks.record(f"seed {seed} traced", problems)
    traced_s = traced.setup_s + traced.run_s
    by_name = tracer.by_name()
    extra["trace.overhead_ratio"] = traced_s / (plain.setup_s + plain.run_s)
    extra["trace.spans"] = float(tracer.spans)
    metrics = layer_metrics(by_name, tracer.counters, traced_s, traced.result.queries, extra)
    for name, value, unit in fn_metrics(by_name):
        print(f"  {name} = {value:.6g} {unit}")
    return {"metrics": metrics, "runs": tracer.runs(), "digest": traced.result.digest}


def run(workload: Workload, seed: int, seconds: float, traced: bool) -> int:
    """Measure one workload, print every metric and the result line."""
    machine = fingerprint()
    print(f"wmbench {workload.name} seed {seed} trace {int(traced)}")
    print("fingerprint " + json.dumps(machine, sort_keys=True))

    checks = Checks()
    if traced:
        outcome = trace(workload, seed, checks)
        units = dict(PER_LAYER)
    else:
        outcome = measure(workload, seed, seconds, checks)
        units = {name: unit for name, unit, _better in END_TO_END}
    metrics = outcome["metrics"]
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(f"metric error_rate = {checks.failed / checks.attempted:.6g} ratio "
          f"({checks.failed} of {checks.attempted} runs)")

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": workload.name, "seed": seed, "trace": int(traced),
        "seconds": seconds, "fingerprint": machine,
        "config": workload.config, "attempted": checks.attempted,
        "failed": checks.failed, "problems": checks.problems,
        "units": units, **outcome,
    }
    out = OUT_DIR / f"{workload.name}-seed{seed}-trace{int(traced)}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if checks.failed == 0 else 1

