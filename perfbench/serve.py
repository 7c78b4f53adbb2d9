"""The ``serve_replay`` workload: a live 1-worker daemon fed open loop.

Set-up generates a caida trace long enough for the run at the offered
rate and encodes it as NetFlow v5 datagrams (one record per packet).
The timed part runs in a freshly spawned interpreter
(:func:`isolated_session`): it binds a :class:`~repro.serve.ServeDaemon`
on loopback, starts ``sender.py`` as a separate process on a fixed
absolute schedule of bursts, and ends once the sender is done *and*
the daemon's receive counter has stopped advancing: a lossy run never
waits for packets that will not come.

Costs are CPU per packet (listener thread plus worker process), so the
number describes the program rather than how the machine's scheduler
shares its cores between listener, worker and sender.  A probe process
per core (``probe.py``) takes reference readings (``common.reference_ms``)
every second of the session, and the listener's and the worker's CPU
times are rescaled by the median reading of their own core; readings
taken only before and after a session did not track the host during
it.  The export latency of a window is the program's work on it,
the worker's ``collect`` plus the listener's sink ``emit`` in CPU time;
the open-loop wall time from a window's last burst falling due to its
emit is reported per layer.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from perfbench.common import (
    REFERENCE_MS,
    GateError,
    Outcome,
    TierError,
    caida_packets,
    exact_share,
    peak_rss_mb,
    reset_peak_rss,
    timed_setups,
)
from perfbench.sender import BURST
from perfbench.tracer import Patches, Tracer

#: Synthetic clock rate; its 4 ms period is a whole number of
#: milliseconds, so replayed timestamps equal the offline clock.  An
#: ``interval:10`` window holds 2,500 packets: about 12 windows, and as
#: many window-latency samples, per second of replay.
PACKET_RATE = 250.0

#: Offered packet rate: well below what the 1-worker daemon sustains
#: (about a quarter of a core each for listener and worker), so a
#: correct daemon loses nothing and a host running at half speed does
#: not push it into a backlog that would swamp the window latency.
OFFERED_PPS = 30_000.0

#: Records per full v5 datagram.
PER_DATAGRAM = 30

#: Time between starting the sender and its first send (worker start-up).
LEAD_S = 0.5

#: Receive-counter polls without progress that end a run.
STALL_POLLS = 10
POLL_S = 0.02

SENDER = Path(__file__).with_name("sender.py")
PROBE = Path(__file__).with_name("probe.py")


@dataclass
class State:
    spec: object
    trace: object
    datagrams: Path
    packets: int
    pps: float
    #: set-up timings: ``traces.generate_ms``, ``native.load_ms``,
    #: ``replay.encode_ms``
    layers: dict


def setup(
    seed: int, seconds: float, size: float, work_dir: Path, checkpoint=lambda: None
) -> State:
    import numpy as np

    from repro.native import load_kernels
    from repro.serve import ServeSpec, trace_datagrams
    from repro.specs import build

    pps = OFFERED_PPS * size
    start = perf_counter()
    trace = caida_packets(max(1000, int(pps * seconds)), seed)
    generate_ms = (perf_counter() - start) * 1e3
    checkpoint()
    start = perf_counter()
    load_kernels()
    load_ms = (perf_counter() - start) * 1e3
    collector = build("hashflow", scale=0.1, seed=seed, kernel="native")
    spec = ServeSpec(
        pipeline={
            "source": {"kind": "udp", "params": {"host": "127.0.0.1", "port": 0}},
            "collector": collector.spec.to_dict(),
            "rotation": {"kind": "interval", "params": {"window": 10.0}},
            "sinks": [{"kind": "archive"}],
            "packet_rate": PACKET_RATE,
        },
        workers=1,
        backpressure="block",
        stats_interval=3600.0,
    )
    start = perf_counter()
    datagrams = trace_datagrams(trace, packet_rate=PACKET_RATE)
    offsets = np.zeros(len(datagrams) + 1, dtype=np.int64)
    np.cumsum([len(d) for d in datagrams], out=offsets[1:])
    path = work_dir / "datagrams.npz"
    np.savez(path, payload=np.frombuffer(b"".join(datagrams), dtype=np.uint8), offsets=offsets)
    encode_ms = (perf_counter() - start) * 1e3
    layers = {
        "traces.generate_ms": generate_ms,
        "native.load_ms": load_ms,
        "replay.encode_ms": encode_ms,
    }
    return State(spec, trace, path, len(trace), pps, layers)


@dataclass
class Session:
    result: object
    sent: int
    lag_ms: float
    listener_cpu_s: float
    listener_peak_mb: float
    #: the probes' reference readings on the listener's / worker's core
    listener_reference_ms: list
    worker_reference_ms: list
    #: the worker's report: cpu_s, peak_mb, kernel, collects, trace
    worker: dict
    #: per window: wall time from its last packet falling due to its
    #: sink emit returning
    window_ms: list
    #: per window: (worker CPU in ``collect``, listener CPU in the sink
    #: ``emit``), in ms
    export_cpu_ms: list
    #: the listener's spans (traced sessions)
    listener_trace: dict | None = None

    def scales(self) -> tuple[float, float]:
        """(listener, worker) factors that put their CPU times on the
        nominal host."""
        return tuple(
            REFERENCE_MS / float(np.median(readings))
            for readings in (self.listener_reference_ms, self.worker_reference_ms)
        )

    def cpu_s(self) -> float:
        """Listener thread plus worker process CPU seconds, rescaled."""
        listener, worker = self.scales()
        return self.listener_cpu_s * listener + self.worker["cpu_s"] * worker


def _cores() -> tuple[set, set]:
    """(listener + sender cores, worker cores).

    With two or more usable CPUs the worker gets a core of its own, so
    the scheduler's placement of the three processes cannot change from
    run to run; with one, everything shares it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, {cpus[1]}


def _worker_report(main, path: Path, tracer: Tracer | None, captured: dict, cores: set):
    """``_worker_main`` wrapped to pin the worker and write its own
    usage on exit."""

    def cpu_s() -> float:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return usage.ru_utime + usage.ru_stime

    def wrapper(*args, **kwargs):
        os.sched_setaffinity(0, cores)
        if tracer is not None:
            tracer.reset()  # the fork copied the listener's spans
        reset_peak_rss()
        start = cpu_s()
        try:
            main(*args, **kwargs)
        finally:
            report = {
                "cpu_s": cpu_s() - start,
                "peak_mb": peak_rss_mb(),
                "kernel": captured.get("kernel"),
                "collects": captured.get("collects", []),
                "trace": None if tracer is None else tracer.to_dict(),
            }
            path.write_text(json.dumps(report))

    return wrapper


def session(state: State, work_dir: Path, tracer: Tracer | None = None) -> Session:
    """One daemon run fed by one sender process."""
    import repro.serve.daemon as daemon_module
    from repro.serve import ServeDaemon
    from repro.serve.ring import PacketRing

    report_path = work_dir / "worker.json"
    report_path.unlink(missing_ok=True)
    gc.collect()  # the forked worker starts from a collected heap
    daemon = ServeDaemon(state.spec, quiet=True)
    host, port = daemon.bind()
    emits: list[tuple[float, float, float]] = []  # (pipeline clock, return time, CPU s)
    captured: dict = {}

    def probe_sink(build_sink):
        def make(spec):
            sink = build_sink(spec)
            emit = sink.emit

            def timed_emit(records, rotation, now):
                cpu = time.thread_time()
                emit(records, rotation, now)
                emits.append((now, time.monotonic(), time.thread_time() - cpu))

            sink.emit = timed_emit
            if tracer is not None:
                sink.emit = tracer.spanned(sink.emit, f"sink.{sink.kind}.emit")
            return sink

        return make

    def capture_collector(build_collector):
        def make(spec):
            collector = build_collector(spec)
            captured["kernel"] = getattr(collector, "kernel", None)
            if tracer is not None:
                collector.process_batch = tracer.spanned(
                    collector.process_batch, "collector.update"
                )
            return collector

        return make

    def capture_rotation(build_rotation):
        def make(spec):
            rotation = build_rotation(spec)
            collects = captured.setdefault("collects", [])
            collect = rotation.collect

            def timed_collect(*args, **kwargs):
                cpu = time.thread_time()
                records = collect(*args, **kwargs)
                collects.append(time.thread_time() - cpu)
                return records

            rotation.collect = timed_collect
            return rotation

        return make

    sender_out: dict = {}

    def watch(sender) -> None:
        # Open loop: the sender's schedule is fixed; once it is done,
        # stop as soon as the receive counter stops moving.
        out, _ = sender.communicate()
        sender_out.update(json.loads(out.strip().splitlines()[-1]) if out.strip() else {})
        last, idle = -1, 0
        while idle < STALL_POLLS:
            time.sleep(POLL_S)
            seen = daemon.packets_received
            idle = idle + 1 if seen == last else 0
            last = seen
        daemon.request_stop()

    listener_cores, worker_cores = _cores()
    all_cores = os.sched_getaffinity(0)
    with Patches() as patches:
        patches.wrap(daemon_module, "build_sink", probe_sink)
        patches.wrap(daemon_module, "build_collector", capture_collector)
        patches.wrap(daemon_module, "build_rotation", capture_rotation)
        patches.wrap(
            daemon_module,
            "_worker_main",
            lambda f: _worker_report(f, report_path, tracer, captured, worker_cores),
        )
        if tracer is not None:
            patches.wrap(daemon_module, "decode_datagram", lambda f: tracer.spanned(f, "serve.decode"))
            patches.wrap(PacketRing, "push", lambda f: tracer.spanned(f, "serve.ring_push"))
        # The sender (started now) and the watcher thread inherit the
        # listener's core.
        os.sched_setaffinity(0, listener_cores)
        probes = [
            subprocess.Popen(
                [sys.executable, str(PROBE), str(min(cores))],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            for cores in (listener_cores, worker_cores)
        ]
        reset_peak_rss()
        t0 = time.monotonic() + LEAD_S
        sender = subprocess.Popen(
            [sys.executable, str(SENDER), str(state.datagrams), host, str(port),
             repr(state.pps), repr(t0)],
            stdout=subprocess.PIPE,
            text=True,
        )
        watcher = threading.Thread(target=watch, args=(sender,), daemon=True)
        watcher.start()
        try:
            cpu = time.thread_time()
            result = daemon.run(duration=LEAD_S + state.packets / state.pps + 60.0)
            listener_cpu = time.thread_time() - cpu
            listener_peak = peak_rss_mb()
        finally:
            readings = [json.loads(probe.communicate()[0] or "[]") for probe in probes]
            if sender.poll() is None:
                sender.kill()
            sender.wait()
            watcher.join(timeout=30.0)
            os.sched_setaffinity(0, all_cores)
    if sender.returncode != 0 or "records" not in sender_out:
        raise RuntimeError(f"sender failed with exit code {sender.returncode}")
    if not all(readings):
        raise RuntimeError("a host-speed probe reported no readings")
    worker = json.loads(report_path.read_text())
    if worker["kernel"] != "native":
        raise TierError(f"serve worker ran on tier {worker['kernel']!r}, needs 'native'")
    windows = []
    export_cpu = []
    for (now, returned, emit_cpu), collect_cpu in zip(emits[:-1], worker["collects"]):
        # The last emit is the end-of-run drain, which has no collect.
        per_burst = PER_DATAGRAM * BURST
        last_packet = int(round(now * PACKET_RATE))
        due = t0 + (last_packet // per_burst) * per_burst / state.pps
        windows.append((returned - due) * 1e3)
        export_cpu.append((collect_cpu * 1e3, emit_cpu * 1e3))
    return Session(
        result=result,
        sent=int(sender_out["records"]),
        lag_ms=float(sender_out["lag_ms_p99"]),
        listener_cpu_s=listener_cpu,
        listener_peak_mb=listener_peak,
        listener_reference_ms=readings[0],
        worker_reference_ms=readings[1],
        worker=worker,
        window_ms=windows,
        export_cpu_ms=export_cpu,
    )


def _session_child(conn, state: State, work_dir: Path, traced: bool) -> None:
    tracer = Tracer() if traced else None
    try:
        result = session(state, work_dir, tracer)
        if tracer is not None:
            result.listener_trace = tracer.to_dict()
        conn.send(result)
    except BaseException as exc:  # reported to, and raised in, the parent
        conn.send(exc)
    finally:
        conn.close()


def isolated_session(state: State, work_dir: Path, traced: bool) -> Session:
    """:func:`session` in a fresh interpreter.

    The benchmark process holds the trace, the offline reference records
    and the ground truth; a daemon started here would carry them, and so
    would the worker it forks.  The listener runs in a spawned process
    that loads only the spec and the datagram file's path, so peak RSS
    is the daemon's own.
    """
    context = multiprocessing.get_context("spawn")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(
        target=_session_child, args=(sender, replace(state, trace=None), work_dir, traced)
    )
    child.start()
    sender.close()
    try:
        outcome = receiver.recv()
    finally:
        receiver.close()
        child.join()
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome


def offline_records(state: State) -> dict:
    """The offline ``Pipeline.run`` of the same spec over the same trace."""
    from repro.stream.pipeline import Pipeline

    spec = state.spec.pipeline_spec.with_stages(
        source={"kind": "synthetic", "params": {"profile": "caida", "n_flows": 1}}
    )
    return Pipeline.from_spec(spec).run(trace=state.trace).records


def check(session_: Session, offline) -> int:
    """Serve gates; returns the packets lost (sent but never fed)."""
    result = session_.result
    if not result.accounting_exact:
        raise GateError(
            f"serve accounting violated: fed {result.fed} + drops {result.drops} "
            f"+ lost {result.lost} != received {result.packets}"
        )
    lost = session_.sent - result.fed
    if lost == 0 and result.records != offline:
        raise GateError("lossless serve run exported different records than offline Pipeline.run")
    return lost


def run(seed: int, seconds: float, traced: bool, work_dir: Path, size: float = 1.0) -> Outcome:
    # A traced run splits its time: one untraced session, one traced.
    length = seconds / 2 if traced else seconds
    state, setup_s = timed_setups(
        lambda checkpoint: setup(seed, length, size, work_dir, checkpoint)
    )
    offline = offline_records(state)
    truth = state.trace.true_sizes()
    out = Outcome()
    plain = isolated_session(state, work_dir, traced=False)
    sessions = [plain]
    if traced:
        sessions.append(isolated_session(state, work_dir, traced=True))
    for s in sessions:
        out.attempted += s.sent
        try:
            lost = check(s, offline)
            if lost:
                out.fail(lost, f"{lost} of {s.sent} packets sent were never fed")
        except GateError as exc:
            out.fail(s.sent, str(exc))

    result = plain.result
    # Export latency: the program's work on a window's export, the
    # worker's collect plus the listener's sink emit, in CPU time
    # rescaled by the readings on each one's core.
    listener_scale, worker_scale = plain.scales()
    collect_ms, emit_ms = np.asarray(plain.export_cpu_ms, dtype=float).reshape(-1, 2).T
    exports = collect_ms * worker_scale + emit_ms * listener_scale
    out.notes = {
        "offered_pps": state.pps,
        "sent": plain.sent,
        "fed": result.fed,
        "latency_samples": len(exports),
        "listener_cpu_s": plain.listener_cpu_s,
        "worker_cpu_s": plain.worker["cpu_s"],
        "peak_mb": {"listener": plain.listener_peak_mb, "worker": plain.worker["peak_mb"]},
        "reference_ms": {
            "listener": [round(r, 1) for r in plain.listener_reference_ms],
            "worker": [round(r, 1) for r in plain.worker_reference_ms],
        },
    }
    out.e2e = {
        "setup_s": setup_s,
        "throughput": result.fed / plain.cpu_s(),
        "latency_ms_p50": float(np.percentile(exports, 50)),
        "latency_ms_p90": float(np.percentile(exports, 90)),
        "exact_flows": exact_share(result.records, truth),
        "peak_rss_mb": max(plain.listener_peak_mb, plain.worker["peak_mb"]),
    }
    out.layers = dict(state.layers)
    out.layers.update(
        {
            "serve.listener_cpu_ns_per_pkt": plain.listener_cpu_s * listener_scale * 1e9 / result.fed,
            "serve.worker_cpu_ns_per_pkt": plain.worker["cpu_s"] * worker_scale * 1e9 / result.fed,
            "serve.loss": (plain.sent - result.fed) / plain.sent,
            "serve.kernel_loss": plain.sent - result.packets,
            "serve.ring_drops": result.drops,
            "serve.recv_errors": sum(result.recv_errors.values()),
            "replay.lag_ms": plain.lag_ms,
            "serve.window_ms_p50": float(np.percentile(plain.window_ms, 50)),
            "serve.window_ms_p90": float(np.percentile(plain.window_ms, 90)),
        }
    )
    if traced:
        traced_session = sessions[1]
        out.tracer = Tracer()
        out.tracer.absorb(traced_session.listener_trace)
        out.tracer.absorb(traced_session.worker["trace"])
        totals = out.tracer.totals()
        received = traced_session.result.packets
        fed = traced_session.result.fed

        def ns(name):
            return totals.get(name, {"ns": 0})["ns"]

        out.layers.update(
            {
                "serve.decode_ns_per_pkt": ns("serve.decode") / received,
                "serve.ring_push_ns_per_pkt": ns("serve.ring_push") / received,
                "collector.update_ns_per_pkt": ns("collector.update") / fed,
                "trace.overhead_pct": (
                    (traced_session.cpu_s() / fed) / (plain.cpu_s() / result.fed) - 1.0
                ) * 100.0,
            }
        )
    return out
