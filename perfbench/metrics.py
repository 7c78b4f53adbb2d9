"""What each per-layer metric is for.

``BENCHMARK.json`` at the repository root is the one list of workloads
and metrics (name, unit, better direction, bound); :func:`benchmark`
reads it.  What that file has no room for lives here: for each
per-layer metric, the end-to-end metric it should move and the
workloads on which it should move it.

Every end-to-end metric is reported for every workload, with one
meaning per workload (``perfbench/README.md`` lists them), so a later
change can be judged on every workload by the same names.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

PIPELINES = ("timeout_expiry", "count_export")
_ALL = PIPELINES + ("serve_replay", "store_query")

# per-layer metric -> (end-to-end metric it should move, on which workloads)
MOVES = {
    "traces.generate_ms": ("setup_s", _ALL),
    "native.load_ms": ("setup_s", ("timeout_expiry", "serve_replay", "store_query")),
    "replay.encode_ms": ("setup_s", ("serve_replay",)),
    "pipeline.run_ms": ("throughput", PIPELINES),
    "batch.key_batch_ms": ("throughput", ("count_export",)),
    "pipeline.merge_records_ms": ("throughput", ("count_export",)),
    "pipeline.self_ms": ("throughput", ("count_export",)),
    "collector.update_ns_per_pkt": ("throughput", ("count_export",)),
    "collector.update_calls": ("throughput", ("count_export",)),
    "collector.update_ms": ("throughput", ("count_export",)),
    "rotation.note_ns_per_pkt": ("throughput", ("timeout_expiry",)),
    "rotation.drain_ms": ("throughput", ("timeout_expiry",)),
    "rotation.collect_ms": ("latency_ms_p50", ("timeout_expiry",)),
    "rotation.collect_calls": ("latency_ms_p50", ("timeout_expiry",)),
    "rotation.query_calls": ("throughput", ("timeout_expiry",)),
    "rotation.evict_calls": ("throughput", ("timeout_expiry",)),
    "rotation.scalar_ms": ("throughput", ("timeout_expiry",)),
    "rotation.export_yield": ("throughput", ("timeout_expiry",)),
    "sink.netflow_v5.emit_ns_per_record": ("throughput", ("count_export",)),
    "sink.archive.emit_ns_per_record": ("throughput", ("count_export",)),
    "sink.netflow_v5.datagrams": ("throughput", ("count_export",)),
    "serve.listener_cpu_ns_per_pkt": ("throughput", ("serve_replay",)),
    "serve.worker_cpu_ns_per_pkt": ("throughput", ("serve_replay",)),
    "serve.decode_ns_per_pkt": ("throughput", ("serve_replay",)),
    "serve.ring_push_ns_per_pkt": ("throughput", ("serve_replay",)),
    "serve.loss": ("throughput", ("serve_replay",)),
    "serve.kernel_loss": ("throughput", ("serve_replay",)),
    "serve.ring_drops": ("throughput", ("serve_replay",)),
    "serve.recv_errors": ("throughput", ("serve_replay",)),
    "replay.lag_ms": ("latency_ms_p90", ("serve_replay",)),
    "serve.window_ms_p50": ("latency_ms_p50", ("serve_replay",)),
    "serve.window_ms_p90": ("latency_ms_p90", ("serve_replay",)),
    "store.ingest_ns_per_record": ("throughput", ("store_query",)),
    "store.merge_up_ms": ("throughput", ("store_query",)),
    "store.bytes_written": ("throughput", ("store_query",)),
    "store.meta_ms": ("latency_ms_p50", ("store_query",)),
    "store.meta_calls": ("latency_ms_p50", ("store_query",)),
    "store.plan_ms": ("latency_ms_p50", ("store_query",)),
    "store.load_node_ms": ("latency_ms_p50", ("store_query",)),
    "store.load_node_calls": ("latency_ms_p50", ("store_query",)),
    "summary.merge_ms": ("latency_ms_p50", ("store_query",)),
    "summary.topk_ms": ("latency_ms_p50", ("store_query",)),
    "summary.lookup_ms": ("latency_ms_p50", ("store_query",)),
    "query.nodes_per_query": ("latency_ms_p50", ("store_query",)),
    "query.topk_ms_p50": ("latency_ms_p50", ("store_query",)),
    "query.lookup_ms_p50": ("latency_ms_p50", ("store_query",)),
    "query.cardinality_ms_p50": ("latency_ms_p50", ("store_query",)),
    "trace.overhead_pct": ("throughput", _ALL),
}


@lru_cache(maxsize=None)
def benchmark() -> dict:
    """``BENCHMARK.json``, parsed."""
    return json.loads(BENCHMARK_JSON.read_text())


def workloads() -> list[str]:
    return [w["name"] for w in benchmark()["workloads"]]


def units(kind: str) -> dict:
    """metric name -> unit, for ``kind`` ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in benchmark()[kind]}
