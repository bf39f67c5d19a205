"""Repository benchmark: seeded closed-loop workloads over the public API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload encoder-serve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload campaign-mix --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload decoder-cold --smoke --seconds 2

One client in one process sends each request only after the previous one
returned.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
traces every other request span by span (see ``tracing.py``) and reports
the per-layer metrics, the untraced requests between them giving the
tracing overhead.  Every correctness check runs in both modes; a failed
check counts as a failed operation.  ``--smoke`` shrinks every size for a
fast self-check and keeps every check on.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the environment stamp, the per-kind operation accounting and each
tail metric's percentile and sample count.  See README.md in this
directory for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

STARTED = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("encoder-serve", "decoder-cold", "campaign-mix")
#: Set-up is repeated this often per run and its median reported.
SETUP_REPEATS = 3
#: ``peak_rss_mb`` is read after the set-up and this many timed requests,
#: so a faster program that fits more requests into a run is not charged
#: for the extra requests' memory.
RSS_AFTER_REQUESTS = 4
#: The plane-cache budget the runner pins, small enough that decoder-cold
#: fills it within one run.
PLANE_CACHE_MB = "1024"


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every check kept (a fast self-test)")
    return parser.parse_args(argv)


def _import_program() -> float:
    """Put the checkout's ``src`` first on the path and import it.

    Returns the import seconds.  Raises ``SystemExit`` when the checkout
    holds no program: the benchmark must never measure another copy.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {src}/repro is missing")
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")
    import repro.experiments  # noqa: F401  (the store backend registry)

    return time.perf_counter() - started


def _rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def tail(values: List[float]) -> Tuple[float, int]:
    """The highest percentile with at least ten samples beyond it.

    Nearest rank: the ``p``-th percentile is sample ``ceil(p/100 * n)`` of
    the sorted list, so ten samples lie beyond it when that rank is at
    most ``n - 10``.  Below twenty samples that percentile would not
    exceed the median, so such runs report their maximum (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100
    percentile = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(percentile * n / 100))
    return ordered[rank - 1], percentile


class Results:
    """Per-request samples, the failure accounting and the metric table."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.traced: Dict[str, List[float]] = defaultdict(list)
        self.untraced: Dict[str, List[float]] = defaultdict(list)
        self.accounting: Dict[str, Dict[str, int]] = defaultdict(
            lambda: {"attempted": 0, "succeeded": 0, "failed": 0}
        )
        self.failures: List[str] = []
        self.metrics: Dict[str, Dict[str, float]] = {}
        self.detail: Dict[str, Any] = {}

    def outcome(self, kind: str, problems: List[str]) -> bool:
        entry = self.accounting[kind]
        entry["attempted"] += 1
        if problems:
            entry["failed"] += 1
            self.failures.extend(f"{kind}: {problem}" for problem in problems)
            return False
        entry["succeeded"] += 1
        return True

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def end_to_end(self, primary: str, throughput: float) -> None:
        """The gated metrics, from the workload's primary request kind.

        Every kind's median and tail also go to the detail line.
        """
        times = self.samples[primary]
        self.metric("request_ms_p50", 1000.0 * statistics.median(times), "ms")
        self.metric("request_ms_tail", 1000.0 * tail(times)[0], "ms")
        self.metric("throughput_per_s", throughput, "1/s")
        for kind, values in self.samples.items():
            value, percentile = tail(values)
            self.detail[f"{kind}_ms"] = {
                "p50": 1000.0 * statistics.median(values),
                "tail": 1000.0 * value,
                "tail_percentile": percentile,
                "samples": len(values),
            }


# --------------------------------------------------------------------------- #
# The run
# --------------------------------------------------------------------------- #
def _timed(workload: Any, kind: str, request: Any) -> Tuple[Any, float]:
    started = time.perf_counter()
    response = workload.execute(kind, request)
    return response, time.perf_counter() - started


def _run(args: argparse.Namespace, scratch: Path) -> Tuple[Results, Dict[str, Any]]:
    import_seconds = _import_program()
    from tracing import Tracer

    if args.workload == "campaign-mix":
        from campaign_mix import CampaignMix as Workload
    else:
        from index_workloads import DecoderCold, EncoderServe

        Workload = EncoderServe if args.workload == "encoder-serve" else DecoderCold
    workload = Workload(seed=args.seed, smoke=args.smoke, scratch=scratch)
    tracer = Tracer() if args.trace else None
    results = Results()

    try:
        setup_seconds = []
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.close()
            started = time.perf_counter()
            if tracer is None:
                workload.setup()
            else:
                with tracer.operation("setup"):
                    workload.setup()
            setup_seconds.append(time.perf_counter() - started)
        setup_s = import_seconds + statistics.median(setup_seconds)
        results.detail["setup_s"] = {
            "import_s": import_seconds, "repeats_s": setup_seconds,
        }

        program_counts: Dict[str, float] = defaultdict(float)
        peak_rss = None
        loop_started = time.perf_counter()
        deadline = loop_started + args.seconds
        index = 0
        while index == 0 or time.perf_counter() < deadline:
            kind, request = workload.next_request(index)
            traced = tracer is not None and index % 2 == 0
            problems: List[str] = []
            try:
                if traced:
                    before = workload.counters()
                    with tracer.operation(index):
                        response, elapsed = _timed(workload, kind, request)
                    for name, count in workload.counters().items():
                        program_counts[name] += count - before[name]
                else:
                    response, elapsed = _timed(workload, kind, request)
            except Exception:  # noqa: BLE001 - one failed request, keep serving
                problems.append(traceback.format_exc(limit=4))
            else:
                try:
                    problems.extend(workload.check(kind, request, response))
                except Exception:  # noqa: BLE001 - a crashing check fails the request
                    problems.append(traceback.format_exc(limit=4))
                if traced:
                    for name, count in workload.program_counts(kind, response).items():
                        program_counts[name] += count
            if results.outcome(kind, problems):
                results.samples[kind].append(elapsed)
                workload.record(kind, request, response, elapsed)
                if tracer is not None:
                    (results.traced if traced else results.untraced)[kind].append(elapsed)
            index += 1
            if index == RSS_AFTER_REQUESTS:
                peak_rss = _rss_mb()
        if peak_rss is None:
            peak_rss = _rss_mb()
        loop_seconds = time.perf_counter() - loop_started
        final_counters = workload.counters()

        results.outcome("final-checks", workload.final_checks())
    finally:
        workload.close()

    if tracer is None:
        results.metric("setup_s", setup_s, "s")
        results.metric("peak_rss_mb", peak_rss, "MB")
        results.end_to_end(workload.PRIMARY, workload.throughput())
    else:
        from layers import per_layer

        per_layer(results, tracer, program_counts, final_counters)
    results.detail["loop_s"] = loop_seconds
    return results, workload.environment()


def _environment(args: argparse.Namespace, program: Dict[str, Any]) -> Dict[str, Any]:
    import platform
    import subprocess

    import numpy as np
    from repro.experiments.store import DEFAULT_STORE_BACKEND

    blas: Dict[str, Any] = {}
    try:
        config = np.show_config(mode="dicts")
        for library, info in config.get("Build Dependencies", {}).items():
            blas[library] = {key: info.get(key) for key in ("name", "version")}
    except TypeError:  # NumPy < 1.25 prints only
        blas = {"unknown": True}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # a plain source checkout: the source digest identifies it
    digest = _source_digest()
    thread_env = {
        name: os.environ.get(name)
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_commit": commit,
        "source_sha256": digest,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": blas,
        "thread_env": thread_env,
        "plane_cache_mb": os.environ.get("REPRO_PLANE_CACHE_MB"),
        "default_store_backend": DEFAULT_STORE_BACKEND,
        **program,
    }


def _source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    os.environ["REPRO_PLANE_CACHE_MB"] = PLANE_CACHE_MB
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    # Spawned service workers and every temporary file stay in the checkout.
    os.environ["TMPDIR"] = str(scratch)
    import tempfile

    tempfile.tempdir = str(scratch)
    try:
        results, program = _run(args, scratch)
        environment = _environment(args, program)
    finally:
        _stop_children()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run is using it

    for failure in results.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    attempted = sum(entry["attempted"] for entry in results.accounting.values())
    failed = sum(entry["failed"] for entry in results.accounting.values())
    for name, metric in results.metrics.items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "environment": environment,
        "operations": results.accounting,
        "detail": results.detail,
        "wall_s": time.perf_counter() - STARTED,
    }, sort_keys=True, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": results.metrics,
    }))
    return 0


def _stop_children() -> None:
    """Reap every process this run started (service workers, the tracker)."""
    import multiprocessing

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(10)
    gc.collect()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
