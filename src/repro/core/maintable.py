"""HashFlow main table: ``d`` probe stages over flat register planes.

The main table ``M`` stores accurate ``(flow_id, count)`` records.  Two
organizations are implemented, as in the paper (Section III-A):

* **multihash** — one array of ``n`` buckets probed with ``d``
  independent hash functions ``h_1 ... h_d``;
* **pipelined** — ``d`` sub-tables whose sizes decay geometrically
  (``n_{k+1} = α · n_k``), each with its own hash function.  The paper
  shows this improves utilization by up to ~5.5% at ``α = 0.7``
  (Fig. 2d) and adopts it for the evaluation.

Both live in one structure-of-arrays layout, the register arrays of the
paper's data-plane target: 104-bit keys split into ``uint64`` lo/hi
planes, counters (and optional byte counters) as ``int64`` planes.  A
probe stage ``s`` addresses the flat slice ``[offs[s], offs[s] +
sizes[s])``; the multihash variant gives every stage offset 0 and the
full table size.  The same planes are what the C kernel
(``native/csrc/kernels.c``) mutates in place and what shared-memory
ingest (:mod:`repro.shm.planes`) maps between processes.

The table exposes the *probe* contract used by Algorithm 1: a probe
either increments an existing record, fills an empty bucket, or fails —
reporting the *sentinel* (the colliding bucket with the smallest count)
for the record-promotion strategy.  Probes never evict, so a flow is
never split across buckets.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.flow.batch import KeyBatch
from repro.flow.key import FLOW_KEY_BITS
from repro.hashing.families import HashFamily
from repro.hashing.mixers import MASK64, mix128, mix128_batch
from repro.sketches.base import CostMeter

_COUNTER_BITS = 32

#: Probe outcome: the packet was absorbed (inserted or incremented).
ABSORBED = 0
#: Probe outcome: all d buckets collided; sentinel information returned.
MISSED = 1

DEFAULT_DEPTH = 3
DEFAULT_ALPHA = 0.7


def pipeline_sizes(n_cells: int, depth: int, alpha: float) -> list[int]:
    """Split ``n_cells`` into ``depth`` geometrically decaying sub-tables.

    ``n_k = α^{k-1} · n_1`` with ``n_1 = n · (1-α)/(1-α^d)`` (paper
    Section III-B).  Sizes are rounded to integers (each at least 1) and
    the first table absorbs the rounding drift so the total is exact.
    """
    if n_cells < depth:
        raise ValueError(f"need at least {depth} cells for depth {depth}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    first = n_cells * (1 - alpha) / (1 - alpha**depth)
    sizes = [max(1, round(first * alpha**k)) for k in range(depth)]
    sizes[0] += n_cells - sum(sizes)
    if sizes[0] < 1:
        raise ValueError(
            f"cannot build {depth} pipelined tables with alpha={alpha} "
            f"from {n_cells} cells"
        )
    return sizes


class MainTable:
    """The main table, in either paper layout.

    Args:
        n_cells: total buckets.
        depth: probe stages ``d`` (paper default 3).
        variant: ``"pipelined"`` or ``"multihash"``.
        alpha: pipeline weight ``α`` (pipelined variant only; paper
            default 0.7).
        seed: hash family seed.
        meter: shared cost meter.
        track_bytes: allocate the parallel byte plane (the NetFlow
            record's dOctets field), incremented by the ``size``
            argument of :meth:`probe`.
    """

    def __init__(
        self,
        n_cells: int,
        depth: int = DEFAULT_DEPTH,
        variant: str = "pipelined",
        alpha: float = DEFAULT_ALPHA,
        seed: int = 0,
        meter: CostMeter | None = None,
        track_bytes: bool = False,
    ):
        if n_cells <= 0:
            raise ValueError(f"n_cells must be positive, got {n_cells}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.meter = meter if meter is not None else CostMeter()
        self.track_bytes = track_bytes
        self.n_cells = n_cells
        self.depth = depth
        self.variant = variant
        if variant == "pipelined":
            self.alpha = alpha
            self.sizes = pipeline_sizes(n_cells, depth, alpha)
            offs = [0] * depth
            for s in range(1, depth):
                offs[s] = offs[s - 1] + self.sizes[s - 1]
        elif variant == "multihash":
            # Every stage probes the same flat array of n cells.
            self.sizes = [n_cells] * depth
            offs = [0] * depth
        else:
            raise ValueError(f"unknown variant {variant!r}")
        self._hashes = HashFamily(depth, master_seed=seed)
        seeds = [h.seed for h in self._hashes]
        # (seed, offset, size) per stage, prebound for the Python paths.
        self._stages = list(zip(seeds, offs, self.sizes))
        # Kernel-facing views of the per-stage addressing triples.
        self.seeds_arr = np.array(seeds, dtype=np.uint64)
        self.offs_arr = np.array(offs, dtype=np.int64)
        self.sizes_arr = np.array(self.sizes, dtype=np.int64)
        self.k_lo = np.zeros(n_cells, dtype=np.uint64)
        self.k_hi = np.zeros(n_cells, dtype=np.uint64)
        self.counts = np.zeros(n_cells, dtype=np.int64)
        self.bytes = np.zeros(n_cells, dtype=np.int64) if track_bytes else None

    def _stage_cells(self, lo: np.ndarray, hi: np.ndarray):
        """Per stage, the flat probe index (``np.int64``) of every key
        in a batch of key halves — exactly what :meth:`probe` computes
        per key."""
        for seed, off, size in self._stages:
            yield (mix128_batch(lo, hi, seed) % np.uint64(size)).astype(
                np.int64
            ) + off

    def bucket_rows(self, lo: np.ndarray, hi: np.ndarray) -> list[list[int]]:
        """Every flat probe index for a batch of key halves: ``d`` lists
        of Python ints, entry ``[s][i]`` the cell the stage-``s`` probe
        of key ``i`` touches."""
        return [idx.tolist() for idx in self._stage_cells(lo, hi)]

    def _find(self, key: int) -> int:
        """Flat index of the flow's first resident record, else -1."""
        lo = key & MASK64
        hi = key >> 64
        counts = self.counts
        for seed, off, size in self._stages:
            idx = off + mix128(key, seed) % size
            if (
                counts[idx]
                and int(self.k_lo[idx]) == lo
                and int(self.k_hi[idx]) == hi
            ):
                return idx
        return -1

    # ------------------------------------------------------------------
    # Probe/promote contract (Algorithm 1)
    # ------------------------------------------------------------------
    def probe(self, key: int, size: int = 0) -> tuple[int, int, int]:
        """Probe the table with all hash functions for ``key``.

        Args:
            key: packed flow ID.
            size: packet length in bytes, accumulated when
                ``track_bytes`` is enabled.

        Returns:
            ``(ABSORBED, 0, -1)`` if the packet found its record or an
            empty bucket; ``(MISSED, min_count, sentinel)`` otherwise,
            where ``sentinel`` is the flat index of the colliding bucket
            with the smallest count, for :meth:`promote`.
        """
        meter = self.meter
        lo = key & MASK64
        hi = key >> 64
        counts = memoryview(self.counts)
        k_lo = memoryview(self.k_lo)
        k_hi = memoryview(self.k_hi)
        min_count = -1
        pos = -1
        for seed, off, table_size in self._stages:
            idx = off + mix128(key, seed) % table_size
            meter.hashes += 1
            meter.reads += 1
            count = counts[idx]
            if count == 0:
                k_lo[idx] = lo
                k_hi[idx] = hi
                counts[idx] = 1
                if self.bytes is not None:
                    self.bytes[idx] = size
                meter.writes += 1
                return ABSORBED, 0, -1
            if k_lo[idx] == lo and k_hi[idx] == hi:
                counts[idx] = count + 1
                if self.bytes is not None:
                    self.bytes[idx] += size
                meter.writes += 1
                return ABSORBED, 0, -1
            if min_count < 0 or count < min_count:
                min_count = count
                pos = idx
        return MISSED, min_count, pos

    def promote(self, sentinel: int, key: int, count: int, size: int = 0) -> None:
        """Overwrite the sentinel bucket with ``(key, count)``.

        With byte tracking, the promoted record's byte counter restarts
        at ``size`` (earlier bytes were lost to ancillary churn — a
        documented lower bound).
        """
        self.k_lo[sentinel] = key & MASK64
        self.k_hi[sentinel] = key >> 64
        self.counts[sentinel] = count
        if self.bytes is not None:
            self.bytes[sentinel] = size
        self.meter.writes += 1

    # ------------------------------------------------------------------
    # Report / control plane
    # ------------------------------------------------------------------
    def query(self, key: int) -> int:
        """The flow's recorded count, or 0 if absent."""
        idx = self._find(key)
        return int(self.counts[idx]) if idx >= 0 else 0

    def query_batch(self, batch: KeyBatch) -> np.ndarray:
        """Recorded counts for a whole key batch (``np.int64``).

        Same first-stage-hit precedence as the scalar :meth:`query`: a
        later stage only answers keys every earlier stage missed, so
        the answer stays bit-identical even if control-plane evictions
        ever leave a flow resident in two probe buckets.
        """
        n = len(batch)
        out = np.zeros(n, dtype=np.int64)
        if not n:
            return out
        lo, hi = batch.halves()
        unresolved = np.ones(n, dtype=bool)
        for idx in self._stage_cells(lo, hi):
            hit = (
                unresolved
                & (self.counts[idx] > 0)
                & (self.k_lo[idx] == lo)
                & (self.k_hi[idx] == hi)
            )
            if hit.any():
                out[hit] = self.counts[idx[hit]]
                unresolved &= ~hit
                if not unresolved.any():
                    break
        return out

    def _resident(self, values: np.ndarray) -> dict[int, int]:
        """``{key: values[idx]}`` over occupied cells in ascending flat
        index (stage-major) order; a key resident twice — possible only
        after control-plane evictions — takes its later cell's value."""
        idx = np.flatnonzero(self.counts)
        # Each key as 16 big-endian bytes (hi, lo): one int.from_bytes
        # per key instead of a shift and an or.
        packed = np.empty((idx.size, 2), dtype=">u8")
        packed[:, 0] = self.k_hi[idx]
        packed[:, 1] = self.k_lo[idx]
        cells = packed.view("V16").ravel().tolist()
        keys = map(int.from_bytes, cells, repeat("big"))
        return dict(zip(keys, values[idx].tolist()))

    def records(self) -> dict[int, int]:
        """All resident records."""
        return self._resident(self.counts)

    def byte_records(self) -> dict[int, int]:
        """Per-flow byte counts (requires ``track_bytes``).

        Raises:
            RuntimeError: if byte tracking is disabled.
        """
        if self.bytes is None:
            raise RuntimeError("byte tracking is disabled for this table")
        return self._resident(self.bytes)

    def byte_query(self, key: int) -> int | None:
        """Measured byte count of the flow's resident record.

        A per-key probe (the byte-side twin of :meth:`query`) so
        expiry-style exporters can read a few flows' byte counts
        without materializing :meth:`byte_records` over the whole
        table.  Returns None when the flow is not resident.

        Raises:
            RuntimeError: if byte tracking is disabled.
        """
        if self.bytes is None:
            raise RuntimeError("byte tracking is disabled for this table")
        idx = self._find(key)
        return int(self.bytes[idx]) if idx >= 0 else None

    def occupancy(self) -> int:
        """Number of occupied buckets."""
        return int(np.count_nonzero(self.counts))

    def utilization(self) -> float:
        """Fraction of buckets occupied (the quantity modelled in §III-B)."""
        return self.occupancy() / self.n_cells

    def per_table_utilization(self) -> list[float]:
        """Occupancy fraction of each probe stage's slice (compare the
        pipelined layout with Eq. 4)."""
        return [
            int(np.count_nonzero(self.counts[off : off + size])) / size
            for _, off, size in self._stages
        ]

    def remove(self, key: int) -> bool:
        """Clear the flow's record if resident (control-plane operation,
        e.g. after a timeout export; not metered).  Returns whether a
        record was removed."""
        idx = self._find(key)
        if idx < 0:
            return False
        # Bytes are left stale: invisible while count == 0 and reseeded
        # on insert.
        self.k_lo[idx] = 0
        self.k_hi[idx] = 0
        self.counts[idx] = 0
        return True

    def reset(self) -> None:
        """Clear all buckets (in place, so shared planes stay shared)."""
        self.k_lo.fill(0)
        self.k_hi.fill(0)
        self.counts.fill(0)
        if self.bytes is not None:
            self.bytes.fill(0)

    @property
    def memory_bits(self) -> int:
        """Buckets of (104-bit key, 32-bit counter [, 32-bit bytes])."""
        cell = FLOW_KEY_BITS + _COUNTER_BITS
        if self.track_bytes:
            cell += _COUNTER_BITS
        return self.n_cells * cell
