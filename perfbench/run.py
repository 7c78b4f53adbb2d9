"""Run one benchmark workload; the last stdout line is its JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload timeout_expiry --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced;
``--trace 1`` prints the per-layer metrics of a traced run (which
interleaves untraced work to measure the tracing overhead) and writes
its spans to ``.bench_build/perfbench/``.  Lines before the result,
prefixed ``#``, record the environment and sample counts.  The exit
code is 0 only when every correctness gate passed; gate failures are
listed on stderr.

Everything the run builds or writes stays under ``.bench_build/`` in
the checkout: the native kernel cache, the serve datagram file, the
flow store.
"""

from __future__ import annotations

import argparse
import atexit
import ctypes
import json
import math
import os
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"

#: ``prctl`` option that makes orphaned descendants this process's children.
PR_SET_CHILD_SUBREAPER = 36

#: Seconds the run waits for its descendants to end before killing them.
CHILD_GRACE_S = 10.0


def adopt_orphans() -> None:
    """Become the reaper of every orphaned descendant (Linux only), so
    that :func:`stop_children` also sees a grandchild whose parent died."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def children() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            pids.append(int(stat.parent.name))
    return pids


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    The multiprocessing resource tracker (started for the serve
    workload's spawned session and shared-memory rings) would otherwise
    outlive the run until it noticed its pipe close.  Anything else
    still running after ``CHILD_GRACE_S`` is killed.
    """
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + CHILD_GRACE_S
    while pids := children():
        late = time.monotonic() > deadline
        for pid in pids:
            try:
                if late:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0 if late else os.WNOHANG)
            except (ChildProcessError, ProcessLookupError):
                pass
        time.sleep(0.01)


def parse_args(argv=None):
    from perfbench.metrics import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, work_dir: Path, size: float = 1.0
):
    """Run one workload; ``size`` scales its inputs (tests use tiny ones)."""
    if name in ("timeout_expiry", "count_export"):
        from perfbench import pipelines

        return pipelines.run(name, seed, seconds, traced, size)
    if name == "serve_replay":
        from perfbench import serve

        return serve.run(seed, seconds, traced, work_dir, size)
    from perfbench import store

    return store.run(seed, seconds, traced, work_dir, size)


def result_line(outcome, traced: bool) -> dict:
    """The final JSON object: every metric of the requested kind."""
    from perfbench.metrics import units

    if traced:
        catalogue = {n: (u, outcome.layers.get(n, 0.0)) for n, u in units("per_layer").items()}
    else:
        catalogue = {n: (u, outcome.e2e[n]) for n, u in units("end_to_end").items()}
    metrics = {}
    for name, (unit, value) in catalogue.items():
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": not outcome.errors and outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    args = parse_args(argv)
    # The kernel build cache stays inside the checkout, and no inherited
    # fault plan may reach the daemon.
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD / "repro-native")
    os.environ.pop("REPRO_FAULTS", None)
    work_dir = BUILD / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        from perfbench.common import environment

        outcome = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work_dir
        )
        print("# env " + json.dumps(environment(work_dir), sort_keys=True))
        if outcome.tracer is not None:
            spans = work_dir.parent / f"spans-{args.workload}-{args.seed}.jsonl"
            outcome.tracer.dump(spans)
            outcome.notes["spans"] = str(spans.relative_to(ROOT))
        print("# notes " + json.dumps(outcome.notes, sort_keys=True))
        result = result_line(outcome, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for message in outcome.errors[:20]:
        print(f"perfbench: gate failed: {message}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # Registered first, so it runs after every other exit handler
    # (multiprocessing's joins its children before).
    atexit.register(stop_children)
    adopt_orphans()
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
