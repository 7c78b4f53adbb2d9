"""The two offline ``Pipeline.run`` workloads.

``timeout_expiry`` is the CLI's default ``stream`` configuration
(caida, 60k packets of ~20k flows, HashFlow at the 1 MB x 0.1 budget,
timeout rotation 15 s / 1800 s / sweep every 1024 packets,
``netflow_v5`` + ``archive`` sinks) on the native tier;
``count_export`` keeps collector and sinks but runs the numpy tier
under count rotation over 600k packets (~200k flows), which never
calls the scalar expiry path.  Its epoch is 50k packets, giving 12
exports per pass; a pass is short enough for about ten passes per
run, so the median pass and the pooled export-latency p90 are steady.

A run repeats whole passes (fresh collector and sinks, the same
trace) until its time is up; end-to-end numbers are medians over
passes.  Passes are timed in thread CPU time and rescaled by the
reference readings taken between them (``common.reference_ms``).
The host's speed also changes inside a pass, so short readings are
also taken during it, after every ``reading_every``-th export: each
stretch of a pass between two readings is scaled by that pair.  Before
each pass the
heap is collected and frozen (``common.settle_heap``), so the
collections inside a pass traverse only the program's own objects.
With tracing on, untraced and traced passes alternate, so
``trace.overhead_pct`` compares like with like.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter, thread_time_ns

import numpy as np

from perfbench.common import (
    GateError,
    Outcome,
    Readings,
    Reference,
    caida_packets,
    exact_share,
    median,
    peak_rss_mb,
    require_tier,
    reset_peak_rss,
    settle_heap,
    timed_setups,
)
from perfbench.tracer import Patches, Tracer

#: The CLI default memory budget: the paper's 1 MB at scale 0.1.
SCALE = 0.1

SINKS = ({"kind": "netflow_v5"}, {"kind": "archive"})

CONFIGS = {
    "timeout_expiry": {
        "kernel": "native",
        "packets": 60_000,
        "rotation": {
            "kind": "timeout",
            "params": {
                "inactive_timeout": 15.0,
                "active_timeout": 1800.0,
                "expiry_interval": 1024,
            },
        },
        # ~150 exports of ~3 ms in a ~1.1 s pass: a reading every ~0.1 s
        "reading_every": 15,
    },
    "count_export": {
        "kernel": "numpy",
        "packets": 600_000,
        "epoch_packets": 50_000,
        # 12 exports of ~20 ms in a ~1 s pass: a reading after each
        "reading_every": 1,
    },
}


@dataclass
class State:
    kernel: str
    #: exports between two readings inside a pass (see run_pass)
    reading_every: int
    rotation: dict
    source: dict
    collector_spec: dict
    trace: object
    #: set-up timings: ``traces.generate_ms``, ``native.load_ms``
    layers: dict


def setup(name: str, seed: int, size: float, checkpoint=lambda: None) -> State:
    """Generate the trace and resolve the collector (kernel loaded)."""
    from repro.native import load_kernels
    from repro.specs import build

    config = CONFIGS[name]
    packets = max(1000, int(config["packets"] * size))
    rotation = config.get("rotation")
    if rotation is None:  # count rotation: the epoch scales with the trace
        epoch = max(500, int(config["epoch_packets"] * size))
        rotation = {"kind": "count", "params": {"epoch_packets": epoch}}
    start = perf_counter()
    trace = caida_packets(packets, seed)
    trace.flow_batch()  # the per-flow key batch every pass reuses
    generate_ms = (perf_counter() - start) * 1e3
    checkpoint()
    start = perf_counter()
    if config["kernel"] == "native":
        load_kernels()
    load_ms = (perf_counter() - start) * 1e3
    collector = build("hashflow", scale=SCALE, seed=seed, kernel=config["kernel"])
    require_tier(collector, config["kernel"])
    return State(
        kernel=config["kernel"],
        reading_every=config["reading_every"],
        rotation=rotation,
        source={
            "kind": "synthetic",
            "params": {"profile": "caida", "n_flows": trace.num_flows, "seed": seed},
        },
        collector_spec=collector.spec.to_dict(),
        trace=trace,
        layers={"traces.generate_ms": generate_ms, "native.load_ms": load_ms},
    )


def _instrument(patches: Patches, tracer: Tracer, pipeline, trace) -> None:
    """Wrap every layer boundary of one pipeline pass."""
    import repro.stream.pipeline as pipeline_module

    collector = pipeline.collector
    rotation = pipeline.rotation
    patches.wrap(trace, "key_batch", lambda f: tracer.spanned(f, "batch.key_batch"))
    patches.wrap(collector, "process_batch", lambda f: tracer.spanned(f, "collector.update"))
    patches.wrap(collector, "query", lambda f: tracer.tallied(f, "rotation.query"))
    patches.wrap(collector, "evict", lambda f: tracer.tallied(f, "rotation.evict"))
    for method in ("note", "collect", "drain"):
        patches.wrap(rotation, method, lambda f, m=method: tracer.spanned(f, f"rotation.{m}"))
    for sink in pipeline.sinks:
        patches.wrap(sink, "emit", lambda f, k=sink.kind: tracer.spanned(f, f"sink.{k}.emit"))
        patches.wrap(sink, "close", lambda f, k=sink.kind: tracer.spanned(f, f"sink.{k}.close"))
    patches.wrap(
        pipeline_module,
        "merge_flow_records",
        lambda f: tracer.spanned(f, "pipeline.merge_records"),
    )


def run_pass(state: State, tracer: Tracer | None = None):
    """One ``Pipeline.run`` over the set-up trace.

    Returns ``(result, pipeline, cpu_ns, nominal_ns,
    export_latencies_ns)``, times in thread CPU time; ``cpu_ns`` is the
    pass as measured, ``nominal_ns`` the same on the nominal host.  The
    export latency of a rotation runs
    from the moment the feeder finds it due (it calls ``collect`` at
    once) to the return of the last sink ``emit``; the end-of-stream
    drain goes through ``drain`` and is not counted.

    Untraced, short reference readings are taken when the run starts
    and ends and after every ``state.reading_every``-th export's last
    ``emit``, never between a ``collect`` and its emits.  Each
    stretch of the pass between two readings, and each export within
    it, is scaled by that pair, so changes of host speed inside a pass,
    which readings between passes cannot follow, are followed; the
    latencies come back scaled.  The readings' own time is counted in
    neither time.  Traced, ``nominal_ns`` is None and the latencies are
    as measured.
    """
    from repro.specs import build
    from repro.stream.pipeline import Pipeline

    collector = build(state.collector_spec)
    require_tier(collector, state.kernel)
    pipeline = Pipeline(
        source=state.source,
        collector=collector,
        rotation=state.rotation,
        sinks=SINKS,
    )
    #: (latency ns, index of the first reading after the export)
    exports: list[tuple[int, int]] = []
    due = [0]
    readings = Readings() if tracer is None else None

    def mark_due(collect):
        def wrapper(*args, **kwargs):
            due[0] = thread_time_ns()
            return collect(*args, **kwargs)

        return wrapper

    def after_emit(emit):
        def wrapper(*args, **kwargs):
            emit(*args, **kwargs)
            if due[0]:
                latency = thread_time_ns() - due[0]
                due[0] = 0
                exports.append((latency, 0 if readings is None else len(readings.marks)))
                if readings is not None and len(exports) % state.reading_every == 0:
                    readings.read()

        return wrapper

    with Patches() as patches:
        patches.wrap(pipeline.rotation, "collect", mark_due)
        patches.wrap(pipeline, "_emit", after_emit)
        run = pipeline.run
        if tracer is not None:
            _instrument(patches, tracer, pipeline, state.trace)
            run = tracer.spanned(run, "pipeline.run")
        if readings is not None:
            readings.read()
        start = thread_time_ns()
        result = run(trace=state.trace)
        cpu = thread_time_ns() - start
        if readings is not None:
            readings.read()
    getattr(collector, "close", lambda: None)()
    if readings is None:
        return result, pipeline, cpu, None, [ns for ns, _ in exports]
    cpu -= sum(end - begin for begin, end, _ in readings.marks[1:-1])
    latencies = [ns * readings.factor(after) for ns, after in exports]
    return result, pipeline, cpu, readings.scaled_ns(), latencies


def check_pass(result, pipeline, reference) -> None:
    """The per-pass gates: v5 parse-back and pass-to-pass identity."""
    from repro.stream.sinks import ArchiveSink, NetFlowV5Sink

    for sink in pipeline.sinks:
        if isinstance(sink, NetFlowV5Sink) and sink.parse_back() != result.records:
            raise GateError("netflow_v5 parse-back differs from PipelineResult.records")
        if isinstance(sink, ArchiveSink) and sink.merged() != result.records:
            raise GateError("archive sink differs from PipelineResult.records")
    if reference is not None and result.records != reference:
        raise GateError("a pass exported different records than the first pass")


def run(name: str, seed: int, seconds: float, traced: bool, size: float = 1.0) -> Outcome:
    state, setup_s = timed_setups(lambda checkpoint: setup(name, seed, size, checkpoint))
    tracer = Tracer() if traced else None
    out = Outcome(tracer=tracer)
    times = {False: [], True: []}  # pass times scaled between passes, by traced
    nominal_ns = []  # untraced pass times scaled inside the pass
    raw_ms = []
    latencies: list[float] = []  # rescaled export latencies
    packets = 0
    traced_packets = 0
    exported = 0
    datagrams = 0
    reference = None
    host = Reference()
    reset_peak_rss()
    host.between()
    deadline = perf_counter() + seconds
    index = 0
    while perf_counter() < deadline or index < (2 if traced else 1):
        use_tracer = traced and index % 2 == 1
        settle_heap()
        result, pipeline, cpu, nominal, lat = run_pass(state, tracer if use_tracer else None)
        host.between()
        # Traced and untraced passes alike, scaled by the readings
        # between passes: what trace.overhead_pct compares.
        times[use_tracer].append(cpu * host.scale(index))
        out.attempted += 1
        try:
            check_pass(result, pipeline, reference)
        except GateError as exc:
            out.fail(1, str(exc))
        if reference is None:
            reference = result.records
        if use_tracer:
            traced_packets += result.packets
            exported += result.exported
            datagrams += result.sinks["netflow_v5"]["datagrams"]
        else:
            packets = result.packets
            raw_ms.append(round(cpu / 1e6, 1))
            nominal_ns.append(nominal)
            latencies.extend(lat)
        index += 1
    gc.unfreeze()
    peak = peak_rss_mb()

    out.notes = {
        "passes": len(times[False]),
        "pass_cpu_ms": raw_ms,
        "reference_ms": [round(r, 1) for r in host.readings],
        "traced_passes": len(times[True]),
        "packets_per_pass": packets,
        "latency_samples": len(latencies),
    }
    out.e2e = {
        "setup_s": setup_s,
        "throughput": packets / (median(nominal_ns) / 1e9),
        "latency_ms_p50": float(np.percentile(latencies, 50)) / 1e6,
        "latency_ms_p90": float(np.percentile(latencies, 90)) / 1e6,
        "exact_flows": exact_share(reference, state.trace.true_sizes()),
        "peak_rss_mb": peak,
    }
    out.layers = dict(state.layers)
    if traced:
        out.layers.update(
            _layers(tracer, len(times[True]), traced_packets, exported, datagrams)
        )
        out.layers["trace.overhead_pct"] = (
            median(times[True]) / median(times[False]) - 1.0
        ) * 100.0
    return out


def _layers(tracer: Tracer, passes: int, packets: int, exported: int, datagrams: int) -> dict:
    totals = tracer.totals()

    def row(name):
        return totals.get(name, {"calls": 0, "ns": 0, "self_ns": 0})

    def per_pass_ms(ns):
        return ns / passes / 1e6

    update = row("collector.update")
    queries = row("rotation.query")
    evicts = row("rotation.evict")
    layers = {
        "pipeline.run_ms": per_pass_ms(row("pipeline.run")["ns"]),
        "pipeline.self_ms": per_pass_ms(row("pipeline.run")["self_ns"]),
        "batch.key_batch_ms": per_pass_ms(row("batch.key_batch")["ns"]),
        "pipeline.merge_records_ms": per_pass_ms(row("pipeline.merge_records")["ns"]),
        "collector.update_ns_per_pkt": update["ns"] / packets,
        "collector.update_calls": update["calls"] / passes,
        "collector.update_ms": per_pass_ms(update["ns"]),
        "rotation.note_ns_per_pkt": row("rotation.note")["ns"] / packets,
        "rotation.drain_ms": per_pass_ms(row("rotation.drain")["ns"]),
        "rotation.collect_ms": per_pass_ms(row("rotation.collect")["self_ns"]),
        "rotation.collect_calls": row("rotation.collect")["calls"] / passes,
        "rotation.query_calls": queries["calls"] / passes,
        "rotation.evict_calls": evicts["calls"] / passes,
        "rotation.scalar_ms": per_pass_ms(queries["ns"] + evicts["ns"]),
        "rotation.export_yield": exported / evicts["calls"] if evicts["calls"] else 0.0,
        "sink.netflow_v5.datagrams": datagrams / passes,
    }
    for kind in ("netflow_v5", "archive"):
        layers[f"sink.{kind}.emit_ns_per_record"] = (
            row(f"sink.{kind}.emit")["ns"] / exported if exported else 0.0
        )
    return layers
