"""HashFlow ancillary table ``A``.

Stores *summarized* records ``(digest, count)`` for flows that lost all
``d`` main-table probes (paper Algorithm 1, lines 14-23).  A short
digest of the flow ID (8 bits by default) replaces the full key to save
memory; the counter is likewise narrow (8 bits) and saturates.

Update semantics for a packet whose flow digests to ``digest`` at bucket
``idx``, with ``min_count`` the sentinel count from the failed main
probe:

* empty bucket or digest mismatch → *replace*: the existing summarized
  flow is discarded and the bucket becomes ``(digest, 1)``;
* digest match and ``count < min_count`` → *increment*;
* digest match and ``count >= min_count`` → *promote*: the flow has
  grown at least as large as the smallest colliding main-table record,
  so it should displace that sentinel.

The cells are two flat planes, ``digests`` (``uint64``) and ``counts``
(``int64``), shared with the C kernel and with shared-memory ingest
(see :mod:`repro.core.maintable`).
"""

from __future__ import annotations

import numpy as np

from repro.hashing.digest import DigestFunction
from repro.hashing.families import HashFunction
from repro.hashing.mixers import mix128, mix128_batch
from repro.sketches.base import CostMeter
from repro.sketches.linear_counting import linear_counting_estimate

DEFAULT_COUNTER_BITS = 8

#: Widest counter the ``int64`` count plane holds without overflow.
MAX_COUNTER_BITS = 62

#: Outcome: the packet was recorded in the ancillary table.
STORED = 0
#: Outcome: the record grew past the sentinel and must be promoted.
PROMOTE = 1


class AncillaryTable:
    """The ancillary (digest, count) table of HashFlow.

    Args:
        n_cells: number of buckets.
        index_hash: the hash ``g1`` mapping flow IDs to buckets.
        digest: digest function (``h1 mod 2**w`` in the paper).
        counter_bits: counter width, at most 62; counters saturate at
            ``2**counter_bits - 1`` (8 bits in the paper's setup).
        meter: shared cost meter.

    Both hashes must be plain :class:`HashFunction` /
    :class:`DigestFunction` instances: every path (scalar, numpy batch,
    C kernel) addresses cells with their prebound seeds.
    """

    def __init__(
        self,
        n_cells: int,
        index_hash: HashFunction,
        digest: DigestFunction,
        counter_bits: int = DEFAULT_COUNTER_BITS,
        meter: CostMeter | None = None,
    ):
        if n_cells <= 0:
            raise ValueError(f"n_cells must be positive, got {n_cells}")
        if not 0 < counter_bits <= MAX_COUNTER_BITS:
            raise ValueError(
                "the count plane is int64; counter_bits must be in "
                f"[1, {MAX_COUNTER_BITS}], got {counter_bits}"
            )
        if not (
            type(index_hash) is HashFunction
            and type(digest) is DigestFunction
            and type(digest.base) is HashFunction
        ):
            raise ValueError(
                "the ancillary table requires plain HashFunction/"
                "DigestFunction hashes (cells are addressed by prebound seeds)"
            )
        self.n_cells = n_cells
        self.counter_bits = counter_bits
        self.max_count = (1 << counter_bits) - 1
        self.digest = digest
        self.meter = meter if meter is not None else CostMeter()
        self._index_seed = index_hash.seed
        self._digest_seed = digest.base.seed
        self._digest_mask = (1 << digest.bits) - 1
        self.digests = np.zeros(n_cells, dtype=np.uint64)
        self.counts = np.zeros(n_cells, dtype=np.int64)

    def _cell(self, key: int) -> int:
        return mix128(key, self._index_seed) % self.n_cells

    def offer(self, key: int, min_count: int) -> tuple[int, int]:
        """Record a packet that failed every main-table probe.

        Args:
            key: packed flow ID.
            min_count: sentinel count from the failed main probe.

        Returns:
            ``(STORED, 0)`` if the packet was absorbed here, or
            ``(PROMOTE, new_count)`` when the caller must write
            ``(key, new_count)`` over the main-table sentinel
            (``new_count = count + 1``, counting this packet).
        """
        meter = self.meter
        idx = self._cell(key)
        dig = mix128(key, self._digest_seed) & self._digest_mask
        meter.hashes += 2
        meter.reads += 1
        count = int(self.counts[idx])
        if count == 0 or int(self.digests[idx]) != dig:
            # New or colliding flow: replace the summarized record.
            self.digests[idx] = dig
            self.counts[idx] = 1
            meter.writes += 1
            return STORED, 0
        if count < min_count:
            if count < self.max_count:
                self.counts[idx] = count + 1
            meter.writes += 1
            return STORED, 0
        return PROMOTE, count + 1

    def bucket_digest_rows(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bucket indices and digests for a batch of key halves
        (``np.uint64``), bit-identical to what :meth:`offer` computes
        per key."""
        return (
            mix128_batch(lo, hi, self._index_seed) % np.uint64(self.n_cells),
            mix128_batch(lo, hi, self._digest_seed) & np.uint64(self._digest_mask),
        )

    def query(self, key: int) -> int:
        """Summarized count for ``key`` (0 unless its digest matches)."""
        idx = self._cell(key)
        count = int(self.counts[idx])
        dig = mix128(key, self._digest_seed) & self._digest_mask
        if count > 0 and int(self.digests[idx]) == dig:
            return count
        return 0

    def query_batch(self, batch) -> np.ndarray:
        """Summarized counts for a whole key batch (``np.int64``): one
        gather of the (counts, digests) cells and one masked select."""
        idx, dig = self.bucket_digest_rows(*batch.halves())
        hit = self.counts[idx]
        return np.where((hit > 0) & (self.digests[idx] == dig), hit, np.int64(0))

    def clear_cell(self, key: int) -> None:
        """Erase the cell ``key`` maps to (used by the promotion-clearing
        HashFlow variant; the literal Algorithm 1 leaves it stale)."""
        idx = self._cell(key)
        self.digests[idx] = 0
        self.counts[idx] = 0
        self.meter.writes += 1

    def occupancy(self) -> int:
        """Number of non-empty buckets."""
        return int(np.count_nonzero(self.counts))

    def estimate_cardinality(self) -> float:
        """Linear-counting estimate of distinct flows that hit this table.

        Paper §IV-A: linear counting is "used by HashFlow to estimate
        the number of flows in its ancillary table".
        """
        return linear_counting_estimate(self.n_cells, self.n_cells - self.occupancy())

    def reset(self) -> None:
        """Clear all buckets (in place, so shared planes stay shared)."""
        self.digests.fill(0)
        self.counts.fill(0)

    @property
    def memory_bits(self) -> int:
        """Buckets of (digest, counter)."""
        return self.n_cells * (self.digest.bits + self.counter_bits)
