"""The ``store_query`` workload: flowdb ingest, merge-up and queries.

Set-up runs two count-rotation pipelines (two vantages: the same
320k-packet caida trace through HashFlow with two hash seeds, native
tier, 32 windows of 10k packets) and keeps
each vantage's per-rotation ``archive`` output.  Each timed cycle
writes that output into a fresh :class:`~repro.flowdb.FlowStore`
(``ingest_rotations`` + ``merge_up``), then answers a fixed mix of
queries against it: every op (topk / lookup / cardinality) over
last-N and ``[start, stop]`` ranges of several widths, in both
cross-vantage merge modes.  The mix is the same for every seed; the
seed draws the flow keys and the looked-up keys, so seeds differ in
which flows they touch but not in how much work they ask for.

Cycles are timed in thread CPU time.  Untraced, short reference
readings (``common.reference_ms``) are taken inside each cycle: before
and after ingest + merge-up and after every ``QUERY_STRETCH`` queries;
the ingest and each query are rescaled by the pair around them.  Traced
cycles, which only feed per-layer numbers, are rescaled by the readings
taken between cycles.

Every answer is checked against an in-memory replay: the same records
as :class:`~repro.flowdb.FlowSummary` objects merged with
:func:`~repro.flowdb.merge_summaries`.
"""

from __future__ import annotations

import gc
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, thread_time_ns

import numpy as np

from perfbench.common import (
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

WINDOWS = 32
EPOCH_PACKETS = 10_000
#: vantage name -> hash-seed offset from the run seed
VANTAGES = {"a": 0, "b": 1}
TOPK = 10
#: (form, width): last-N windows, or an N-window [start, stop] range;
#: width 0 means every window.
SHAPES = (("last", 1), ("last", 8), ("range", 4), ("range", 16), ("range", 0))
OPS = ("topk", "lookup", "cardinality")
MERGES = ("max", "sum")
#: Queries between two short readings inside a cycle (about 0.4 s).
QUERY_STRETCH = 10


@dataclass
class State:
    trace: object
    by_rotation: dict  # vantage -> rotation -> records
    queries: list
    #: set-up timings: ``traces.generate_ms``, ``native.load_ms``
    layers: dict


def _archive(trace, seed: int, epoch_packets: int):
    from repro.specs import build
    from repro.stream.pipeline import Pipeline

    collector = build("hashflow", scale=0.1, seed=seed, kernel="native")
    require_tier(collector, "native")
    pipeline = Pipeline(
        source={"kind": "synthetic", "params": {"profile": "caida", "n_flows": 1}},
        collector=collector,
        rotation={"kind": "count", "params": {"epoch_packets": epoch_packets}},
        sinks=[{"kind": "archive"}],
    )
    pipeline.run(trace=trace)
    return pipeline.sinks[0].by_rotation


def make_queries(by_rotation: dict, seed: int) -> list:
    """The query mix: every op x shape x merge mode; lookup keys are
    drawn from the windows each lookup covers."""
    from repro.flowdb import QuerySpec

    rng = random.Random(seed)
    windows = sorted(by_rotation["a"])
    count = len(windows)
    queries = []
    for op in OPS:
        for form, width in SHAPES:
            for merge in MERGES:
                fields = {"op": op, "merge": merge, "k": TOPK}
                width_ = min(width or count, count)
                if form == "last":
                    fields["last"] = width_
                    chosen = windows[-width_:]
                else:
                    # Centred: not aligned to the merge-up hierarchy, so
                    # a plan mixes parent and leaf nodes.
                    first = (count - width_ + 1) // 2
                    fields["start"] = windows[first]
                    fields["stop"] = windows[first + width_ - 1]
                    chosen = windows[first : first + width_]
                if op == "lookup":
                    records = by_rotation["a"][rng.choice(chosen)]
                    fields["key"] = rng.choice(records).key
                queries.append(QuerySpec(**fields))
    return queries


def setup(seed: int, size: float, checkpoint=lambda: None) -> State:
    from repro.native import load_kernels

    epoch = max(500, int(EPOCH_PACKETS * size))
    start = perf_counter()
    trace = caida_packets(WINDOWS * epoch, seed)
    generate_ms = (perf_counter() - start) * 1e3
    checkpoint()
    start = perf_counter()
    load_kernels()
    load_ms = (perf_counter() - start) * 1e3
    by_rotation = {}
    for vantage, offset in VANTAGES.items():
        by_rotation[vantage] = _archive(trace, seed + offset, epoch)
        checkpoint()
    queries = make_queries(by_rotation, seed)
    layers = {"traces.generate_ms": generate_ms, "native.load_ms": load_ms}
    return State(trace, by_rotation, queries, layers)


def replay(state: State) -> dict:
    """vantage -> window -> in-memory :class:`FlowSummary` of the records."""
    from repro.flowdb import FlowSummary

    return {
        v: {r: FlowSummary.from_records(records) for r, records in rotations.items()}
        for v, rotations in state.by_rotation.items()
    }


def expected(reference: dict, spec) -> dict:
    """The answer an in-memory replay of the same records gives."""
    from repro.flowdb import merge_summaries

    per_vantage = {}
    windows = {}
    for vantage, leaves in reference.items():
        existing = sorted(leaves)
        if spec.last is not None:
            chosen = existing[-spec.last :]
        else:
            chosen = [w for w in existing if spec.start <= w <= spec.stop]
        windows[vantage] = chosen
        per_vantage[vantage] = merge_summaries([leaves[w] for w in chosen], mode="sum")
    merged = merge_summaries(list(per_vantage.values()), mode=spec.merge)
    answer = {"windows": windows}
    if spec.op == "topk":
        answer["results"] = merged.top_k(spec.k)
    elif spec.op == "lookup":
        hit = merged.lookup(spec.key)
        answer["packets"] = hit[0] if hit else 0
        answer["by_vantage"] = {}
        for vantage, summary in per_vantage.items():
            vhit = summary.lookup(spec.key)
            series = []
            for window in windows[vantage]:
                whit = reference[vantage][window].lookup(spec.key)
                if whit is not None:
                    series.append((window, whit[0]))
            answer["by_vantage"][vantage] = (vhit[0] if vhit else 0, series)
    else:
        answer["flows"] = merged.cardinality()
        answer["by_vantage"] = {v: s.cardinality() for v, s in per_vantage.items()}
    return answer


def observed(answer: dict) -> dict:
    """The fields of an ``execute`` answer that :func:`expected` predicts."""
    out = {"windows": {v: p["windows"] for v, p in answer["vantages"].items()}}
    if answer["op"] == "topk":
        out["results"] = [(r["key"], r["packets"]) for r in answer["results"]]
    elif answer["op"] == "lookup":
        out["packets"] = answer["packets"]
        out["by_vantage"] = {
            v: (row["packets"], [(s["window"], s["packets"]) for s in row["series"]])
            for v, row in answer["by_vantage"].items()
        }
    else:
        out["flows"] = answer["flows"]
        out["by_vantage"] = dict(answer["by_vantage"])
    return out


def _instrument(patches: Patches, tracer: Tracer, store) -> None:
    import repro.flowdb.query as query_module
    from repro.flowdb import FlowSummary

    patches.wrap(store, "ingest_rotations", lambda f: tracer.spanned(f, "store.ingest"))
    patches.wrap(store, "merge_up", lambda f: tracer.spanned(f, "store.merge_up"))
    for method in ("vantages", "levels", "nodes", "leaf_windows"):
        patches.wrap(store, method, lambda f: tracer.spanned(f, "store.meta"))
    patches.wrap(store, "plan", lambda f: tracer.spanned(f, "store.plan"))
    patches.wrap(store, "load_node", lambda f: tracer.spanned(f, "store.load_node"))
    patches.wrap(query_module, "merge_summaries", lambda f: tracer.spanned(f, "summary.merge"))
    patches.wrap(FlowSummary, "top_k", lambda f: tracer.spanned(f, "summary.topk"))
    patches.wrap(FlowSummary, "lookup", lambda f: tracer.spanned(f, "summary.lookup"))


def _bytes_under(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def cycle(state: State, root: Path, tracer: Tracer | None = None):
    """Fresh store: ingest + merge_up, then the whole query mix.

    Returns ``(ingest_ns, records, bytes, [(op, latency_ns)], answers,
    cycle_ns, store)``; a query that raises has its exception as answer.
    Times are thread CPU time: every node write ends in ``fsync``, and
    how long the disk takes to confirm it is the machine's, not the
    program's (the CPU time of the write and ``fsync`` calls counts).
    Untraced, ``ingest_ns`` and the latencies are on the nominal host
    (short readings around them, see the module doc); ``cycle_ns`` is
    never rescaled and leaves out the readings.
    """
    from repro.flowdb import FlowStore, execute

    shutil.rmtree(root, ignore_errors=True)
    readings = Readings() if tracer is None else None

    def read() -> None:
        if readings is not None:
            readings.read()

    def factor(after: int) -> float:
        return 1.0 if readings is None else readings.factor(after)

    def next_reading() -> int:
        return 0 if readings is None else len(readings.marks)

    begin = thread_time_ns()
    store = FlowStore(root)
    latencies = []
    answers = []
    with Patches() as patches:
        run_query = execute
        if tracer is not None:
            _instrument(patches, tracer, store)
            spans = {op: tracer.spanned(execute, f"query.{op}") for op in OPS}

            def run_query(store_, spec):
                return spans[spec.op](store_, spec)

        read()
        start = thread_time_ns()
        records = 0
        for vantage, rotations in state.by_rotation.items():
            store.ingest_rotations(vantage, rotations)
            records += sum(len(r) for r in rotations.values())
        for vantage in state.by_rotation:
            store.merge_up(vantage)
        ingest_ns = thread_time_ns() - start
        read()
        ingest_ns *= factor(1)
        timed = []  # (op, latency ns, index of the next reading)
        for index, spec in enumerate(state.queries, 1):
            start = thread_time_ns()
            try:
                answer = run_query(store, spec)
            except Exception as exc:  # a failed query is a failed operation
                answer = exc
            timed.append((spec.op, thread_time_ns() - start, next_reading()))
            answers.append(answer)
            if index % QUERY_STRETCH == 0 or index == len(state.queries):
                read()
    cycle_ns = thread_time_ns() - begin - (0 if readings is None else readings.own_ns())
    latencies = [(op, ns * factor(after)) for op, ns, after in timed]
    return ingest_ns, records, _bytes_under(root), latencies, answers, cycle_ns, store


def check(state: State, answers_by_cycle: list) -> list[str]:
    """Compare every answer with the in-memory replay; one line per miss."""
    errors = []
    reference = replay(state)
    for index, spec in enumerate(state.queries):
        want = expected(reference, spec)
        for answers in answers_by_cycle:
            got = answers[index]
            if isinstance(got, Exception):
                errors.append(f"query {spec.to_json()} raised {got!r}")
            elif observed(got) != want:
                errors.append(f"query {spec.to_json()} answered differently from the replay")
    return errors


def run(seed: int, seconds: float, traced: bool, work_dir: Path, size: float = 1.0) -> Outcome:
    state, setup_s = timed_setups(lambda checkpoint: setup(seed, size, checkpoint))
    root = work_dir / "store"
    tracer = Tracer() if traced else None
    cycle_times = {False: [], True: []}
    rates = []
    latencies = []  # (op, rescaled ns)
    raw_cycle_ms = []  # untraced cycles, not rescaled
    answers_by_cycle = []
    traced_records = traced_bytes = traced_queries = traced_nodes = 0
    host = Reference()
    reset_peak_rss()
    host.between()
    deadline = perf_counter() + seconds
    index = 0
    while perf_counter() < deadline or index < (2 if traced else 1):
        use_tracer = traced and index % 2 == 1
        settle_heap()
        ingest_ns, records, written, lat, answers, cycle_ns, store = cycle(
            state, root, tracer if use_tracer else None
        )
        host.between()
        scale = host.scale(index)
        answers_by_cycle.append(answers)
        cycle_times[use_tracer].append(cycle_ns * scale)
        if use_tracer:
            traced_records += records
            traced_bytes += written
            traced_queries += len(answers)
            traced_nodes += sum(
                sum(p["nodes"] for p in a["vantages"].values())
                for a in answers
                if isinstance(a, dict)
            )
        else:
            # cycle() rescaled these by the readings inside the cycle
            raw_cycle_ms.append(round(cycle_ns / 1e6, 1))
            rates.append(records / (ingest_ns / 1e9))
            latencies.extend(lat)
        index += 1
    gc.unfreeze()
    peak = peak_rss_mb()

    out = Outcome(attempted=sum(len(a) for a in answers_by_cycle), tracer=tracer)
    for message in check(state, answers_by_cycle):
        out.fail(1, message)
    whole = store.summarize("a", store.leaf_windows("a"))
    out.notes = {
        "cycles": len(cycle_times[False]),
        "traced_cycles": len(cycle_times[True]),
        "windows_per_vantage": len(state.by_rotation["a"]),
        "records_per_cycle": records,
        "latency_samples": len(latencies),
        "reference_ms": [round(r, 1) for r in host.readings],
        "cycle_cpu_ms": raw_cycle_ms,
    }
    query_ns = [ns for _, ns in latencies]
    out.e2e = {
        "setup_s": setup_s,
        "throughput": median(rates),
        "latency_ms_p50": float(np.percentile(query_ns, 50)) / 1e6,
        "latency_ms_p90": float(np.percentile(query_ns, 90)) / 1e6,
        "exact_flows": exact_share(whole.counts(), state.trace.true_sizes()),
        "peak_rss_mb": peak,
    }
    out.layers = dict(state.layers)
    for op in OPS:
        out.layers[f"query.{op}_ms_p50"] = (
            float(np.percentile([ns for o, ns in latencies if o == op], 50)) / 1e6
        )
    if traced:
        cycles = len(cycle_times[True])
        everything = tracer.totals()
        in_queries = tracer.totals(root_prefix="query.")

        def per_query_ms(name, field="ns"):
            return in_queries.get(name, {field: 0})[field] / traced_queries / 1e6

        out.layers.update(
            {
                "store.ingest_ns_per_record": everything["store.ingest"]["ns"] / traced_records,
                "store.merge_up_ms": everything["store.merge_up"]["ns"] / cycles / 1e6,
                "store.bytes_written": traced_bytes / cycles,
                "store.meta_ms": per_query_ms("store.meta", "self_ns"),
                "store.meta_calls": in_queries.get("store.meta", {"calls": 0})["calls"] / traced_queries,
                "store.plan_ms": per_query_ms("store.plan", "self_ns"),
                "store.load_node_ms": per_query_ms("store.load_node"),
                "store.load_node_calls": in_queries.get("store.load_node", {"calls": 0})["calls"] / traced_queries,
                "summary.merge_ms": per_query_ms("summary.merge"),
                "summary.topk_ms": per_query_ms("summary.topk"),
                "summary.lookup_ms": per_query_ms("summary.lookup"),
                "query.nodes_per_query": traced_nodes / traced_queries,
                "trace.overhead_pct": (median(cycle_times[True]) / median(cycle_times[False]) - 1.0) * 100.0,
            }
        )
    return out
