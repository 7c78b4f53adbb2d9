"""Shared pieces of the workloads: results, gates, environment, stats."""

from __future__ import annotations

import gc
import os
import platform
import random
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time_ns

import numpy as np

#: A run sets up at least this many times, and until ``SETUP_BUDGET_S``
#: has passed (at most ``SETUPS_MAX`` times); ``setup_s`` is their median.
SETUPS = 3
SETUPS_MAX = 15
SETUP_BUDGET_S = 2.0

#: Thread CPU time of :func:`reference_ms` on the nominal host; timed
#: work is rescaled to it.
REFERENCE_MS = 60.0

#: Rounds of the reference work in one full reading.
REFERENCE_ROUNDS = 16

#: Rounds of a short reading taken inside a timed pass or cycle (~8 ms).
SHORT_ROUNDS = 2


class GateError(AssertionError):
    """A correctness gate failed: the program's output is wrong."""


class TierError(RuntimeError):
    """A workload did not run on the kernel tier it is named for."""


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    #: gate failures, one line each (empty = correct)
    errors: list = field(default_factory=list)
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    #: free-form facts printed next to the numbers (sample counts etc.)
    notes: dict = field(default_factory=dict)
    #: the traced run's :class:`~perfbench.tracer.Tracer` (None untraced)
    tracer: object = None

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.errors.append(message)


def settle_heap() -> None:
    """Collect, then freeze what survives before a timed pass.

    The survivors are the benchmark's own live objects (trace, reference
    records, earlier results); frozen, they no longer count towards or
    get traversed by the collector, so a collection inside the pass sees
    only what the program allocated there, and full collections fall at
    the same points of every pass whatever the harness holds.  The
    caller calls ``gc.unfreeze()`` when its timed part is over.
    """
    gc.collect()
    gc.freeze()


def median(values) -> float:
    return float(statistics.median(values))


def reference_ms(rounds: int = REFERENCE_ROUNDS) -> float:
    """Thread CPU time of a fixed piece of work that is not the program's.

    The hosts this runs on are shared: the same pass may take 40% longer
    a few minutes later, in CPU time as in wall time, because the
    physical core is busy with other tenants.  The workloads run this
    reference between their passes (serve: in a probe process beside the
    session, ``probe.py``) and rescale each timed pass by
    ``REFERENCE_MS / reference``, so a host that runs everything slower
    moves both alike while a slower program moves only the pass.  The
    work mixes what the program does (interpreter-bound dict inserts and
    iteration over integer keys, numpy sorts) on a working set of a few
    MB, so it does not raise the peak RSS of a timed part.

    A short reading of fewer ``rounds`` is put on the same scale by
    :func:`nominal_factor`.
    """
    start = thread_time_ns()
    total = 0
    for _ in range(rounds):
        table = {}
        for i in range(20_000):
            table[(i * 2654435761) & 0xFFFFFFFFFFFF] = i
        for value in table.values():
            total += value
        keys = np.arange(125_000, dtype=np.uint64) * np.uint64(2654435761)
        keys.sort()
    return (thread_time_ns() - start) / 1e6


def nominal_factor(readings_ms, rounds: int = REFERENCE_ROUNDS) -> float:
    """The factor that puts work bracketed by ``readings_ms`` (of
    ``rounds`` rounds each) on the nominal host."""
    return REFERENCE_MS * rounds / REFERENCE_ROUNDS / (sum(readings_ms) / len(readings_ms))


class Reference:
    """Reference readings taken between the timed items of a run.

    Call :meth:`between` once before the first item and once after
    every item; item ``i`` is then bracketed by readings ``i`` and
    ``i + 1``, and :meth:`scale` is the factor that puts it on the
    nominal host.
    """

    def __init__(self):
        self.readings: list[float] = []

    def between(self) -> None:
        self.readings.append(reference_ms())

    def scale(self, index: int) -> float:
        return nominal_factor(self.readings[index : index + 2])


class Readings:
    """Short reference readings taken inside one timed piece of work.

    Call :meth:`read` when the work starts, between its steps, and when
    it ends.  Each stretch of work between two readings is put on the
    nominal host by that pair, so a change of host speed in the middle
    of the work is followed; the readings' own time is left out.
    """

    def __init__(self):
        #: (thread ns when a reading began, when it ended, reading ms)
        self.marks: list[tuple[int, int, float]] = []

    def read(self) -> None:
        begin = thread_time_ns()
        reading = reference_ms(SHORT_ROUNDS)
        self.marks.append((begin, thread_time_ns(), reading))

    def factor(self, after: int) -> float:
        """The scale of the stretch that reading ``after`` closes."""
        pair = self.marks[after - 1 : after + 1]
        return nominal_factor([reading for _, _, reading in pair], SHORT_ROUNDS)

    def scaled_ns(self) -> float:
        """Time from the first reading to the last, readings left out,
        on the nominal host."""
        return sum(
            (self.marks[i][0] - self.marks[i - 1][1]) * self.factor(i)
            for i in range(1, len(self.marks))
        )

    def own_ns(self) -> int:
        """Thread CPU time the readings took."""
        return sum(end - begin for begin, end, _ in self.marks)


def timed_setups(make):
    """Set up repeatedly; returns (last state, median set-up seconds).

    Each set-up is timed in thread CPU time between short reference
    readings (:class:`Readings`): when it starts and ends, and wherever
    it calls the ``checkpoint`` it is given, between its larger steps.
    ``make(checkpoint)`` returns a state with a ``layers`` dict of
    set-up timings (``traces.generate_ms`` ...).  Only the first set-up
    of the process loads (or builds) the native kernels; later ones
    reuse them, so the returned state carries the first set-up's
    ``layers`` while ``setup_s``, a median, describes a set-up with the
    kernels loaded.
    """
    times = []
    state = first = None
    budget = perf_counter() + SETUP_BUDGET_S
    while len(times) < SETUPS or (perf_counter() < budget and len(times) < SETUPS_MAX):
        state = None  # let the previous set-up's memory go first
        gc.collect()
        readings = Readings()
        readings.read()
        state = make(readings.read)
        readings.read()
        times.append(readings.scaled_ns() / 1e9)
        if first is None:
            first = state.layers
    state.layers = first
    return state, median(times)


#: Mean caida flow size (packets), to size a trace for a packet count.
CAIDA_MEAN = 3.06

#: Seed of the flow-size sample and packet order shared by every run.
SHAPE_SEED = 0


def caida_packets(n_packets: int, seed: int):
    """A caida trace of exactly ``n_packets`` packets whose flow keys
    come from ``seed``.

    Caida flow sizes are heavy-tailed (one flow may hold 110,900
    packets), so a fresh size sample per seed would change how many
    flows a fixed packet count holds, and with it the amount of work.
    The sizes and packet order are therefore one fixed sample; the seed
    picks a 104-bit mask XORed into every packed 5-tuple.  XOR with a
    constant keeps the keys distinct and the address/port structure
    intact, while every hash placement and collision changes.
    """
    from repro.traces.profiles import CAIDA
    from repro.traces.trace import Trace

    flows = int(n_packets / CAIDA_MEAN * 1.1) + 100
    while True:
        shape = CAIDA.generate(n_flows=flows, seed=SHAPE_SEED)
        if len(shape) >= n_packets:
            break
        flows = int(flows * 1.25)
    shape = shape.truncate_packets(n_packets)
    mask = random.Random(seed).getrandbits(104)
    keys = [key ^ mask for key in shape.flow_keys]
    return Trace(keys, shape.order, shape.timestamps, name=f"caida-{seed}")


def reset_peak_rss() -> None:
    """Start a new peak-RSS window at the current resident set.

    Set-up (trace generation, reference replays) peaks higher than many
    timed parts; without a reset the peak would measure the harness.
    """
    try:
        with open("/proc/self/clear_refs", "w") as clear:
            clear.write("5")
    except OSError:  # pragma: no cover - no procfs: the peak then spans set-up
        pass


def peak_rss_mb() -> float:
    """Peak resident set of this process since :func:`reset_peak_rss`."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:  # pragma: no cover - no procfs
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def exact_share(records: dict, truth: dict) -> float:
    """Share of true flows whose reported count is exact."""
    if not truth:
        raise GateError("empty ground truth")
    exact = sum(1 for key, size in truth.items() if records.get(key) == size)
    return exact / len(truth)


def require_tier(collector, tier: str) -> None:
    """Fail the run unless ``collector`` runs on ``tier``.

    The native tier falls back to numpy with one warning when the C
    kernels cannot be built; a benchmark that silently measured the
    fallback would report numbers for the wrong program.
    """
    from repro.native import kernel_info

    if tier == "native" and not kernel_info()["available"]:
        raise TierError(f"native tier unavailable: {kernel_info()['error']}")
    actual = getattr(collector, "kernel", None)
    if actual != tier:
        raise TierError(f"collector ran on tier {actual!r}, workload needs {tier!r}")


def filesystem_of(path) -> str:
    """Filesystem type of the mount holding ``path`` (from mountinfo)."""
    target = os.stat(path).st_dev
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return "unknown"
    for line in lines:
        left, _, right = line.partition(" - ")
        parts = left.split()
        major, minor = (int(x) for x in parts[2].split(":"))
        if os.makedev(major, minor) == target:
            return right.split()[0]
    return "unknown"


def environment(work_dir) -> dict:
    """The measurement environment recorded next to every result."""
    from repro.native import kernel_info

    import numpy

    info = kernel_info()
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = os.cpu_count()
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": affinity,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiler": info["compiler"],
        "native_available": info["available"],
        "work_dir_fs": filesystem_of(work_dir),
        "argv": sys.argv[1:],
    }
