"""Tests of the benchmark itself, at tiny input sizes.

Each workload runs once, traced (a traced run also measures untraced,
so it yields both metric sets); every gate is shown to trip on a
corrupted export, serve record set or query answer.  Workloads on the
native tier are skipped where the C kernels cannot be built.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import metrics, pipelines, serve, store
from perfbench.common import GateError
from perfbench.run import ROOT, result_line, run_workload
from perfbench.tracer import Patches, Tracer
from repro.native import native_available

NATIVE = {"timeout_expiry", "serve_replay", "store_query"}
needs_native = pytest.mark.skipif(
    not native_available(), reason="native kernels cannot be built here"
)

#: workload -> (size factor, seconds): one or two passes of tiny inputs.
TINY = {
    "timeout_expiry": (0.05, 0.0),
    "count_export": (0.02, 0.0),
    "serve_replay": (0.2, 2.4),
    "store_query": (0.02, 0.0),
}


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    cache = {}

    def get(name):
        if name not in cache:
            size, seconds = TINY[name]
            work = tmp_path_factory.mktemp(name)
            cache[name] = run_workload(name, 3, seconds, True, work, size)
        return cache[name]

    return get


@pytest.mark.parametrize(
    "name",
    [pytest.param(n, marks=needs_native) if n in NATIVE else n for n in metrics.workloads()],
)
def test_every_metric_reported_with_its_unit(outcomes, name):
    outcome = outcomes(name)
    e2e = result_line(outcome, traced=False)
    layers = result_line(outcome, traced=True)
    assert set(e2e) == {"correct", "attempted", "failed", "metrics"}
    assert e2e["attempted"] >= 1
    if name == "serve_replay" and outcome.layers["serve.loss"] > 0:
        # A busy host may drop datagrams on loopback; lost packets are
        # failed operations, and nothing else may fail.
        assert all("never fed" in message for message in outcome.errors)
    else:
        assert e2e["correct"] and e2e["failed"] == 0, outcome.errors
    for kind, line in (("end_to_end", e2e), ("per_layer", layers)):
        units = metrics.units(kind)
        assert set(line["metrics"]) == set(units)
        for metric, unit in units.items():
            assert line["metrics"][metric]["unit"] == unit
    for metric in metrics.units("end_to_end"):
        assert e2e["metrics"][metric]["value"] > 0, metric
    for metric, (_, applies) in metrics.MOVES.items():
        if name in applies:
            assert metric in outcome.layers, metric


@needs_native
def test_layer_shapes(outcomes):
    expiry = outcomes("timeout_expiry").layers
    assert expiry["rotation.query_calls"] > 0 and expiry["rotation.evict_calls"] > 0
    count = outcomes("count_export").layers
    for metric in ("rotation.query_calls", "rotation.evict_calls", "rotation.scalar_ms"):
        assert count[metric] == 0
    assert outcomes("store_query").layers["store.load_node_calls"] > 0


def test_benchmark_json_is_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    for kind, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                       ("per_layer", {"name", "unit", "better"})):
        for metric in spec[kind]:
            assert set(metric) == keys and metric["better"] in ("lower", "higher")
    # Every per-layer metric says what it should move, and on which workloads.
    assert set(metrics.MOVES) == set(metrics.units("per_layer"))
    for moves, applies in metrics.MOVES.values():
        assert moves in bounds and set(applies) <= set(metrics.workloads())


def test_export_gate_trips_on_corrupted_datagram():
    from repro.stream.sinks import NetFlowV5Sink

    state = pipelines.setup("count_export", 5, 0.01)
    result, pipeline = pipelines.run_pass(state)[:2]
    pipelines.check_pass(result, pipeline, None)
    sink = next(s for s in pipeline.sinks if isinstance(s, NetFlowV5Sink))
    first = bytearray(sink.datagrams[0])
    first[24 + 16 : 24 + 20] = (0xFFFF).to_bytes(4, "big")  # dPkts of record 0
    sink.datagrams[0] = bytes(first)
    with pytest.raises(GateError, match="parse-back"):
        pipelines.check_pass(result, pipeline, None)


def test_export_gate_trips_on_pass_to_pass_difference():
    state = pipelines.setup("count_export", 5, 0.01)
    result, pipeline = pipelines.run_pass(state)[:2]
    other = dict(result.records)
    key = next(iter(other))
    other[key] += 1
    with pytest.raises(GateError, match="different records"):
        pipelines.check_pass(result, pipeline, other)


def _session(records, fed=10, packets=10, sent=10):
    from repro.serve.daemon import ServeResult

    result = ServeResult(
        packets=packets, datagrams=1, drops=0, rotations=0, exported=len(records),
        records=records, sinks={}, meters={}, elapsed=0.0, fed=fed,
    )
    return serve.Session(result, sent, 0.0, 0.0, 0.0, [60.0], [60.0], {}, [], [])


def test_serve_gates():
    assert serve.check(_session({1: 10}), {1: 10}) == 0
    with pytest.raises(GateError, match="offline"):
        serve.check(_session({1: 9, 2: 1}), {1: 10})
    with pytest.raises(GateError, match="accounting"):
        serve.check(_session({1: 10}, fed=9), {1: 10})
    # A lossy run is not compared with the offline records; its loss is
    # returned so the caller counts the lost packets as failed.
    assert serve.check(_session({1: 7}, fed=7, packets=7), {1: 10}) == 3


@pytest.fixture(scope="module")
def store_cycle(tmp_path_factory):
    state = store.setup(7, 0.02)
    answers = store.cycle(state, tmp_path_factory.mktemp("store") / "s")[4]
    return state, answers


@needs_native
def test_store_gate_accepts_true_answers(store_cycle):
    state, answers = store_cycle
    assert store.check(state, [answers]) == []


@needs_native
@pytest.mark.parametrize("op", store.OPS)
def test_store_gate_trips_on_corrupted_answer(store_cycle, op):
    state, answers = store_cycle
    index = next(i for i, q in enumerate(state.queries) if q.op == op)
    bad = json.loads(json.dumps(answers[index]))
    if op == "topk":
        bad["results"][0]["packets"] += 1
    elif op == "lookup":
        bad["packets"] += 1
    else:
        bad["flows"] -= 1
    corrupted = list(answers)
    corrupted[index] = bad
    assert len(store.check(state, [corrupted])) == 1


@needs_native
def test_store_gate_counts_a_failed_query(store_cycle):
    state, answers = store_cycle
    failed = list(answers)
    failed[0] = RuntimeError("boom")
    errors = store.check(state, [failed])
    assert len(errors) == 1 and "raised" in errors[0]


def test_tracer_self_time_and_restore():
    tracer = Tracer()

    class Box:
        def inner(self):
            return 1

        def outer(self):
            return self.inner() + self.inner()

    box = Box()
    with Patches() as patches:
        patches.wrap(box, "inner", lambda f: tracer.spanned(f, "inner"))
        patches.wrap(box, "outer", lambda f: tracer.spanned(f, "outer"))
        assert box.outer() == 2
    assert "inner" not in vars(box) and "outer" not in vars(box)
    totals = tracer.totals()
    assert totals["inner"]["calls"] == 2
    outer = totals["outer"]
    assert outer["self_ns"] == outer["ns"] - totals["inner"]["ns"]
    assert tracer.totals(root_prefix="inner") == {}


def test_stop_children_ends_tracker_and_orphans():
    # In a fresh interpreter: a resource tracker, a child, and a
    # grandchild orphaned by its parent's exit must all be gone.
    script = """
import os, subprocess, sys, time
from multiprocessing import resource_tracker
from perfbench.run import adopt_orphans, children, stop_children
adopt_orphans()
resource_tracker.ensure_running()
subprocess.Popen([sys.executable, "-c", "import time; time.sleep(0.3)"])
subprocess.run([sys.executable, "-c",
    "import subprocess, sys; subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(0.3)'])"])
time.sleep(0.1)
before = len(children())
stop_children()
print(before, len(children()))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["3", "0"]


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "timeout_expiry",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
