"""One benchmark for the matching service, end to end and layer by layer.

    python3 servicebench/run.py --workload paper-grid --seed 1 \\
        --seconds 15 --trace 0

Boots the real server (``repro.service.http``) in its own process,
drives it through the public ``ServiceClient`` from this process with
at most ``nproc`` threads and connections, checks every answer, and
prints a report followed, as the last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` boots a fresh server as many times as the workload asks;
each boot sets up (``setup_s``) and then runs a timed phase of
``seconds / boots``; metrics.py says how boots combine.  ``--trace 1``
does the same untraced, then boots once more for the whole ``seconds``
with ``launcher.py`` wrapping each layer's entry points from outside
``src/``, and reports that boot's per-layer metrics plus its gap to the
untraced boots as ``trace.overhead_frac``.  Workloads are described in scenarios.py.

The cluster router, the process pool and simulated MPI are not driven:
on a 2-vCPU shared host their wall times measure the OS scheduler.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(HERE, ".run")

GENERATOR_LAG_LIMIT_MS = 10.0
"""An open-loop run whose generator handed requests over later than this
at p99 is flagged: its latencies include the generator's own delay."""

if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    print(f"servicebench: no repro sources under {SRC}; run it from the "
          f"root of a repository checkout", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from repro.hostinfo import cpu_report  # noqa: E402

from loadgen import Sample, new_client  # noqa: E402
from metrics import end_to_end, latency_report, per_layer, unit_of  # noqa: E402
from scenarios import WORKLOADS, Boot, Run, Workload  # noqa: E402
from server import ServerProcess  # noqa: E402
from spans import load_spans, percentile  # noqa: E402


def execute(workload: Workload, *, traced: bool, boots: int) -> Run:
    """Boot, set up, drive and verify ``boots`` times."""
    run = Run(workload, traced)
    scratch = os.path.join(RUN_DIR, f"{os.getpid()}-{int(traced)}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        for index in range(boots):
            workload.start_boot(index)
            trace_out = os.path.join(scratch, f"spans-{index}.json")
            server = ServerProcess(
                workload.serve_args(os.path.join(scratch, f"state-{index}")),
                trace_out=trace_out if traced else None,
            )
            boot = Boot()
            try:
                begin = time.perf_counter()
                url = server.wait_ready()
                client = new_client(url)
                boot.warmup = workload.setup(client)
                boot.setup_s = time.perf_counter() - begin
                boot.before = client.metrics()
                boot.start = time.perf_counter()
                boot.samples, boot.clients = workload.drive(url)
                boot.end = time.perf_counter()
                boot.after = client.metrics()
                boot.peak_rss_mb = server.peak_rss_mb()
            finally:
                server.stop()
            if traced:
                if not os.path.exists(trace_out):
                    raise RuntimeError(
                        f"traced server wrote no spans (exit "
                        f"{server.proc.returncode}): {server.stderr[-2000:]}")
                boot.spans = load_spans(trace_out)
            run.boots.append(boot)
            workload.verify(run, boot)
        workload.summarize(run)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:  # another run is still using it
            pass
    for sample in run.samples + run.warmup:
        if not sample.ok and len(run.failures) < 20:
            run.failures.append(f"{sample.rid}: {sample.error}")
    return run


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """SHA-256 over the files under src/repro: the checkout the
    benchmark runs in need not be a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _phase(samples: list[Sample]) -> dict[str, int]:
    ok = sum(1 for s in samples if s.ok)
    return {"sent": len(samples), "succeeded": ok,
            "failed": len(samples) - ok}


def _lag_p99(run: Run) -> float:
    return percentile([s.lag_ms for s in run.samples], 99.0)


def provenance(args: argparse.Namespace, runs: list[Run]) -> dict[str, Any]:
    """The run record: host, code, seed, versions, per-phase counts and
    how late the load generator ran."""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": cpu_report(),
        "git_sha": _git_sha(),
        "src_digest": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "runs": [
            {
                "traced": run.traced,
                "setup_s": [b.setup_s for b in run.boots],
                "wall_s": [b.wall_s for b in run.boots],
                "warmup": _phase(run.warmup),
                "timed": _phase(run.samples),
                "generator_lag_p99_ms": _lag_p99(run),
                "generator_behind": _lag_p99(run) > GENERATOR_LAG_LIMIT_MS,
                "latency": latency_report(run),
                "failures": run.failures,
                **run.info,
            }
            for run in runs
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="matching-service benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so servers are stopped and
    # the run directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    kind = WORKLOADS[args.workload]
    workload = kind(args.seed, args.seconds / kind.boots)
    untraced = execute(workload, traced=False, boots=kind.boots)
    runs = [untraced]
    if args.trace:
        # One traced boot that runs the whole --seconds, so per-layer
        # tails rest on as many samples as the untraced boots together.
        traced = execute(kind(args.seed, args.seconds), traced=True, boots=1)
        runs.append(traced)
        metrics = per_layer(traced, untraced)
    else:
        metrics = end_to_end(untraced)
    scored = runs[-1]
    print("record " + json.dumps(provenance(args, runs), sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit_of(name)}")
    for run in runs:
        if _lag_p99(run) > GENERATOR_LAG_LIMIT_MS:
            print(f"  WARNING: the load generator fell behind "
                  f"(p99 lag {_lag_p99(run):.1f} ms)")
        for failure in run.failures:
            print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": all(run.correct for run in runs),
        "attempted": len(scored.samples),
        "failed": scored.failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
