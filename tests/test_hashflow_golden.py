"""HashFlow pinned by a recorded golden fixture.

``fixtures/hashflow_list_tier.json`` was recorded from the retired
list-storage tables (per-stage Python lists of keys and counts, with
their own batched walks).  Every surviving implementation of
Algorithm 1 must reproduce it bit for bit: the numpy SoA walk, the C
kernel and the scalar ``process`` path, over the variant ×
``track_bytes`` × ``clear_promoted`` × ``promote`` matrix plus one
:class:`~repro.core.adaptive.AdaptiveHashFlow` run.

Each snapshot holds the ordered ``records()`` / ``byte_records()``,
``query_batch`` over every flow of the stream plus absent keys, the
promotion count, all four meter totals and ``estimate_cardinality()``.

The fixture is data, not a cache: never regenerate it to make a change
pass.  ``python tests/test_hashflow_golden.py --record`` exists only to
show how it was produced.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveHashFlow
from repro.core.hashflow import HashFlow
from repro.flow.batch import KeyBatch
from repro.native import native_available
from repro.traces.profiles import CAIDA

FIXTURE = Path(__file__).parent / "fixtures" / "hashflow_list_tier.json"

#: Small tables, narrow digests and counters: the stream below drives
#: every branch (inserts, increments, digest replacements, saturation,
#: promotions) many times over.
BASE = dict(
    main_cells=48,
    ancillary_cells=160,
    digest_bits=4,
    ancillary_counter_bits=4,
    seed=13,
)
CHUNK = 97


def config_names() -> list[str]:
    names = [
        f"{variant}-bytes{int(tb)}-clear{int(cp)}-promote{int(pr)}"
        for variant, tb, cp, pr in itertools.product(
            ("pipelined", "multihash"), (False, True), (False, True), (False, True)
        )
    ]
    return names + ["adaptive"]


def build(name: str, kernel: str) -> HashFlow:
    if name == "adaptive":
        return AdaptiveHashFlow(**BASE, window=64, max_margin=3, kernel=kernel)
    variant, tb, cp, pr = name.split("-")
    return HashFlow(
        **BASE,
        variant=variant,
        track_bytes=tb == "bytes1",
        clear_promoted=cp == "clear1",
        promote=pr == "promote1",
        kernel=kernel,
    )


def stream() -> tuple[KeyBatch, list[int]]:
    """The seeded caida packet stream (with sizes) and the query keys."""
    trace = CAIDA.generate(n_flows=400, seed=5)
    sizes = np.random.default_rng(5).integers(40, 1500, size=len(trace))
    probes = sorted(trace.flow_keys) + [(1 << 100) + i for i in range(20)]
    return trace.key_batch(sizes=sizes), probes


def feed_batched(hf: HashFlow, batch: KeyBatch) -> None:
    lo, hi = batch.halves()
    for i in range(0, len(batch), CHUNK):
        j = i + CHUNK
        hf.process_batch(
            KeyBatch(batch.keys[i:j], lo[i:j], hi[i:j], batch.sizes[i:j])
        )


def feed_scalar(hf: HashFlow, batch: KeyBatch) -> None:
    if isinstance(hf, AdaptiveHashFlow):
        for key in batch.keys:
            hf.process(key)
        return
    for key, size in zip(batch.keys, batch.sizes.tolist()):
        hf.process(key, size)


def snapshot(hf: HashFlow, probes: list[int]) -> dict:
    meter = hf.meter
    return {
        "records": [[k, c] for k, c in hf.records().items()],
        "byte_records": (
            [[k, b] for k, b in hf.byte_records().items()]
            if hf.track_bytes
            else None
        ),
        "query_batch": hf.query_batch(probes).tolist(),
        "promotions": hf.promotions,
        "meter": [meter.packets, meter.hashes, meter.reads, meter.writes],
        "cardinality": hf.estimate_cardinality(),
    }


def tiers() -> list[str]:
    return ["numpy", "native"] if native_available() else ["numpy"]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def workload():
    return stream()


class TestGoldenFixture:
    def test_fixture_covers_the_matrix(self, golden):
        assert sorted(golden) == sorted(config_names())
        # The stream really exercises promotion and the ancillary.
        assert any(snap["promotions"] for snap in golden.values())
        assert all(snap["records"] for snap in golden.values())

    @pytest.mark.parametrize("kernel", tiers())
    @pytest.mark.parametrize("name", config_names())
    def test_batched_matches_fixture(self, golden, workload, name, kernel):
        batch, probes = workload
        hf = build(name, kernel)
        feed_batched(hf, batch)
        assert snapshot(hf, probes) == golden[name]

    @pytest.mark.parametrize("kernel", tiers())
    @pytest.mark.parametrize("name", config_names())
    def test_scalar_matches_fixture(self, golden, workload, name, kernel):
        batch, probes = workload
        hf = build(name, kernel)
        feed_scalar(hf, batch)
        assert snapshot(hf, probes) == golden[name]


def record() -> None:
    batch, probes = stream()
    data = {}
    for name in config_names():
        hf = build(name, "numpy")
        feed_batched(hf, batch)
        data[name] = snapshot(hf, probes)
    FIXTURE.parent.mkdir(exist_ok=True)
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in data.items()]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_hashflow_golden.py --record")
    record()
