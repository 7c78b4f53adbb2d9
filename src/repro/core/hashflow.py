"""HashFlow: the paper's flow-record collection algorithm (Algorithm 1).

HashFlow keeps *accurate* records for elephant flows in a main table and
*summarized* records for mice flows in an ancillary table, glued
together by two strategies:

1. **Collision resolution** — a packet probes the main table with
   ``h_1 ... h_d``; it takes the first empty bucket or increments its
   own record.  Probes never evict, so records are never split.  The
   probe remembers the *sentinel*: the colliding bucket with the
   smallest count.
2. **Record promotion** — a packet that loses all ``d`` probes falls
   into the ancillary table (digest-keyed, evict-on-mismatch).  When its
   summarized count reaches the sentinel count, the flow has become an
   elephant and is promoted: it overwrites the sentinel record in the
   main table with ``count = ancillary count + 1``.

The main table can be a single multi-hash array or pipelined sub-tables
(paper default: 3 pipelined tables, ``α = 0.7``); both tables are flat
register planes (see :mod:`repro.core.maintable`).  Algorithm 1 has
exactly two batch walks over those planes: the numpy oracle
:meth:`HashFlow._soa_update` and the C kernel (``kernel="native"``),
bit-identical by contract.

Fidelity notes:

* Following the literal Algorithm 1, a promoted flow's ancillary cell is
  left stale (the paper does not clear it); pass
  ``clear_promoted=True`` for the tidier variant — the difference is
  measurable only through digest-collision noise.
* The sentinel is chosen among the *current packet's* ``d`` candidate
  buckets, so a promoted record is always found again by later packets
  of the same flow.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.flow.batch import KeyBatch
from repro.hashing.digest import DEFAULT_DIGEST_BITS, DigestFunction
from repro.hashing.families import HashFamily
from repro.native import resolve_kernel
from repro.sketches.base import FlowCollector
from repro.specs import register
from repro.core.ancillary import PROMOTE, AncillaryTable, DEFAULT_COUNTER_BITS
from repro.core.maintable import ABSORBED, DEFAULT_ALPHA, DEFAULT_DEPTH, MainTable

#: Initial sentinel count: above every int64 counter, so the first
#: colliding bucket always becomes the sentinel.
_NO_SENTINEL = 1 << 63


@register("hashflow")
class HashFlow(FlowCollector):
    """The HashFlow collector.

    Args:
        main_cells: buckets in the main table.
        ancillary_cells: buckets in the ancillary table (the paper uses
            the same number as ``main_cells``).
        depth: number of main-table hash functions ``d`` (paper: 3).
        variant: ``"pipelined"`` (paper's evaluated configuration) or
            ``"multihash"``.
        alpha: pipeline weight ``α`` for the pipelined variant (paper: 0.7).
        digest_bits: ancillary digest width (paper: 8).
        ancillary_counter_bits: ancillary counter width (paper: 8; at
            most 62, the width the ``int64`` count plane holds).
        clear_promoted: clear a flow's ancillary cell on promotion
            (Algorithm 1 leaves it stale; default follows the paper).
        promote: enable the record-promotion strategy (disable only for
            ablation studies — without it, ancillary elephants can never
            re-enter the main table).
        track_bytes: keep a 32-bit byte counter per main-table record
            (the NetFlow dOctets field); feed packets through
            :meth:`process_packet`, or batches carrying
            ``KeyBatch.sizes``, to populate it.  Costs 32 bits per cell
            and is off in the paper's configuration.
        seed: seed for all hash functions.
        kernel: execution tier — ``"native"`` (the compiled C kernel),
            ``"numpy"`` (the reference walk :meth:`_soa_update`), or
            None to follow the ``REPRO_KERNEL`` environment variable.
            Both tiers run over the same table planes and are
            bit-identical (states, estimates, meters); an explicit
            choice is recorded in the spec so sweep workers rebuild the
            same tier.
    """

    name = "HashFlow"

    def __init__(
        self,
        main_cells: int,
        ancillary_cells: int | None = None,
        depth: int = DEFAULT_DEPTH,
        variant: str = "pipelined",
        alpha: float = DEFAULT_ALPHA,
        digest_bits: int = DEFAULT_DIGEST_BITS,
        ancillary_counter_bits: int = DEFAULT_COUNTER_BITS,
        clear_promoted: bool = False,
        promote: bool = True,
        track_bytes: bool = False,
        seed: int = 0,
        kernel: str | None = None,
    ):
        super().__init__()
        if ancillary_cells is None:
            ancillary_cells = main_cells
        params = dict(
            main_cells=main_cells,
            ancillary_cells=ancillary_cells,
            depth=depth,
            variant=variant,
            alpha=alpha,
            digest_bits=digest_bits,
            ancillary_counter_bits=ancillary_counter_bits,
            clear_promoted=clear_promoted,
            promote=promote,
            track_bytes=track_bytes,
            seed=seed,
        )
        # Only an explicit kernel choice is part of the collector's
        # identity; env-resolved tiers keep specs portable across
        # machines (the tiers are bit-identical anyway).
        if kernel is not None:
            params["kernel"] = kernel
        self._record_spec(**params)
        self.kernel, self._native = resolve_kernel(kernel)
        self.variant = variant
        self.clear_promoted = clear_promoted
        self.promote_enabled = promote
        self.track_bytes = track_bytes
        self.main = MainTable(
            main_cells,
            depth=depth,
            variant=variant,
            alpha=alpha,
            seed=seed,
            meter=self.meter,
            track_bytes=track_bytes,
        )
        # g1 and the digest base hash are independent of h_1..h_d.
        aux = HashFamily(2, master_seed=seed ^ 0xA5C1_11A7)
        self.ancillary = AncillaryTable(
            ancillary_cells,
            index_hash=aux[0],
            digest=DigestFunction(aux[1], bits=digest_bits),
            counter_bits=ancillary_counter_bits,
            meter=self.meter,
        )
        self.promotions = 0

    # ------------------------------------------------------------------
    # Update path (Algorithm 1)
    # ------------------------------------------------------------------
    def process(self, key: int, size: int = 0) -> None:
        """Process one packet of flow ``key`` (``size`` feeds the
        optional byte counters)."""
        if self._native is not None:
            # A batch of one through the kernel is bit-identical to the
            # scalar walk (same probes, same meter deltas).
            lo, hi = KeyBatch([key]).halves()
            self.ingest_planes(lo, hi, np.array([size], dtype=np.int64))
            return
        self.meter.packets += 1
        status, min_count, sentinel = self.main.probe(key, size)
        if status == ABSORBED:
            return
        if not self.promote_enabled:
            # Ablation mode: treat the sentinel as unbeatable, so the
            # ancillary only ever stores/increments.
            min_count = 1 << 62
        outcome, new_count = self.ancillary.offer(key, min_count)
        if outcome == PROMOTE:
            self.main.promote(sentinel, key, new_count, size)
            self.promotions += 1
            if self.clear_promoted:
                self.ancillary.clear_cell(key)

    def process_packet(self, packet) -> None:
        """Process a :class:`~repro.flow.packet.Packet`, counting bytes."""
        self.process(packet.key, packet.size)

    # ------------------------------------------------------------------
    # Batched update path
    # ------------------------------------------------------------------
    def process_batch(self, keys) -> None:
        """Run Algorithm 1 over a whole batch.

        Packets are applied strictly in arrival order and the cost
        meter is settled once per batch, so records, query answers,
        promotions and meter totals are bit-identical to the scalar
        path.  With ``track_bytes=True`` a batch without per-packet
        sizes (``KeyBatch.sizes``) counts every packet at 0 bytes,
        exactly as ``process(key)`` would.
        """
        batch = KeyBatch.coerce(keys)
        if len(batch):
            lo, hi = batch.halves()
            self.ingest_planes(lo, hi, batch.sizes)

    def ingest_planes(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        sizes: np.ndarray | None = None,
    ) -> None:
        """Ingest a batch given only its key-half planes.

        The common entry of :meth:`process_batch` and of shared-memory
        shard-parallel workers (:mod:`repro.shm.ingest`), which hold a
        batch as the ``uint64`` planes of a shared input segment and
        never rebuild Python-int keys.  Dispatches to the C kernel or
        the numpy walk :meth:`_soa_update`.

        Args:
            lo: low 64 bits of every key (``np.uint64``).
            hi: high bits of every key (``np.uint64``).
            sizes: optional per-packet byte sizes; with
                ``track_bytes=True`` a missing array counts every
                packet at 0 bytes.
        """
        n = len(lo)
        if not n:
            return
        if not self.track_bytes:
            sizes = None
        elif sizes is None:
            sizes = np.zeros(n, dtype=np.int64)
        if self._native is not None:
            self._native_ingest(lo, hi, sizes)
        else:
            self._soa_update(lo, hi, sizes)

    def _native_ingest(
        self, lo: np.ndarray, hi: np.ndarray, sizes: np.ndarray | None
    ) -> None:
        """Run the batch through the compiled Algorithm-1 kernel, which
        mutates the table planes in place and returns its cost-meter
        deltas."""
        main = self.main
        anc = self.ancillary
        hashes, reads, writes, promotions = self._native.hashflow_update(
            lo,
            hi,
            sizes,
            main.seeds_arr,
            main.offs_arr,
            main.sizes_arr,
            main.k_lo,
            main.k_hi,
            main.counts,
            main.bytes,
            anc._index_seed,
            anc._digest_seed,
            anc._digest_mask,
            anc.n_cells,
            anc.max_count,
            anc.digests,
            anc.counts,
            self.promote_enabled,
            self.clear_promoted,
        )
        self.promotions += promotions
        self.meter.add(
            packets=len(lo), hashes=hashes, reads=reads, writes=writes
        )

    def _soa_update(
        self, lo: np.ndarray, hi: np.ndarray, sizes: np.ndarray | None
    ) -> None:
        """The numpy-tier Algorithm-1 walk: the oracle for the C kernel.

        Every probe index, ancillary bucket and digest is computed for
        the batch in a few vectorized passes; the remaining per-packet
        loop reads and writes the table planes through ``memoryview``
        objects (zero-copy, Python-int element access), so it runs as
        well over shared-memory segments in any process.  Keys never
        need reassembling: a stored key equals the packet's key iff
        both 64-bit halves match.

        The meter is settled once per batch from three tallies, with
        the scalar path's per-event charges: a main probe costs a hash
        and a read, an ancillary offer two hashes and a read, and every
        packet exactly one write (insert, increment, replace, saturated
        increment or promotion) plus one per cleared promoted cell.
        Probes are counted as colliding probes plus one absorbing probe
        per packet that did not reach the ancillary table.
        """
        main = self.main
        anc = self.ancillary
        n = len(lo)
        probe_cells = zip(*main.bucket_rows(lo, hi))
        anc_idx, anc_dig = anc.bucket_digest_rows(lo, hi)
        k_lo = memoryview(main.k_lo)
        k_hi = memoryview(main.k_hi)
        counts = memoryview(main.counts)
        if sizes is None:
            mbytes = None
            size_list = repeat(0)
        else:
            mbytes = memoryview(main.bytes)
            size_list = sizes.tolist()
        a_digests = memoryview(anc.digests)
        a_counts = memoryview(anc.counts)
        a_max = anc.max_count
        # Without promotion the sentinel is unbeatable, so the
        # ancillary only ever stores/increments.
        unbeatable = None if self.promote_enabled else 1 << 62
        clear_promoted = self.clear_promoted
        collisions = offers = promotions = 0
        for key_lo, key_hi, cells, ai, dig, size in zip(
            lo.tolist(),
            hi.tolist(),
            probe_cells,
            anc_idx.tolist(),
            anc_dig.tolist(),
            size_list,
        ):
            # Main-table probe (MainTable.probe, inlined).
            min_count = _NO_SENTINEL
            for idx in cells:
                count = counts[idx]
                if count == 0:
                    k_lo[idx] = key_lo
                    k_hi[idx] = key_hi
                    counts[idx] = 1
                    if mbytes is not None:
                        mbytes[idx] = size
                    break
                if k_lo[idx] == key_lo and k_hi[idx] == key_hi:
                    counts[idx] = count + 1
                    if mbytes is not None:
                        mbytes[idx] += size
                    break
                collisions += 1
                if count < min_count:
                    min_count = count
                    sen_idx = idx
            else:
                # Every stage collided: ancillary offer
                # (AncillaryTable.offer, inlined).
                offers += 1
                if unbeatable is not None:
                    min_count = unbeatable
                acount = a_counts[ai]
                if acount == 0 or a_digests[ai] != dig:
                    a_digests[ai] = dig
                    a_counts[ai] = 1
                elif acount < min_count:
                    if acount < a_max:
                        a_counts[ai] = acount + 1
                else:
                    # Promotion: overwrite the sentinel record.
                    k_lo[sen_idx] = key_lo
                    k_hi[sen_idx] = key_hi
                    counts[sen_idx] = acount + 1
                    if mbytes is not None:
                        mbytes[sen_idx] = size
                    promotions += 1
                    if clear_promoted:
                        a_digests[ai] = 0
                        a_counts[ai] = 0
        self.promotions += promotions
        probes = collisions + n - offers
        self.meter.add(
            packets=n,
            hashes=probes + 2 * offers,
            reads=probes + offers,
            writes=n + (promotions if clear_promoted else 0),
        )

    def _native_query(self, batch: KeyBatch) -> np.ndarray:
        """Batched main-then-ancillary point queries via the C kernel."""
        lo, hi = batch.halves()
        main = self.main
        anc = self.ancillary
        return self._native.hashflow_query(
            lo,
            hi,
            main.seeds_arr,
            main.offs_arr,
            main.sizes_arr,
            main.k_lo,
            main.k_hi,
            main.counts,
            anc._index_seed,
            anc._digest_seed,
            anc._digest_mask,
            anc.n_cells,
            anc.digests,
            anc.counts,
        )

    def byte_records(self) -> dict[int, int]:
        """Per-flow byte counts (requires ``track_bytes=True``).

        Counts are exact for never-promoted records and lower bounds for
        promoted ones (bytes lost to ancillary churn are unrecoverable).

        Raises:
            RuntimeError: if byte tracking is disabled.
        """
        return self.main.byte_records()

    def byte_query(self, key: int) -> int | None:
        """The flow's resident byte count, or None if absent (requires
        ``track_bytes=True``); a per-key probe so expiry exporters read
        a few flows without scanning the whole table.

        Raises:
            RuntimeError: if byte tracking is disabled.
        """
        return self.main.byte_query(key)

    # ------------------------------------------------------------------
    # Report path
    # ------------------------------------------------------------------
    def records(self) -> dict[int, int]:
        """Accurate records: the main table's resident flows."""
        return self.main.records()

    def query(self, key: int) -> int:
        """Main-table count, else the ancillary summarized count, else 0."""
        if self._native is not None:
            return int(self._native_query(KeyBatch([key]))[0])
        count = self.main.query(key)
        if count:
            return count
        return self.ancillary.query(key)

    def query_batch(self, keys) -> np.ndarray:
        """Batched :meth:`query`: vectorized main probe, then ancillary.

        Both tables answer the whole batch with vectorized passes over
        their planes (reusing the batch's 64-bit halves across every
        hash function); the scalar main-then-ancillary precedence
        becomes one masked select.  Bit-identical to the scalar query
        per key.  On the native tier the whole walk — probe stages,
        precedence, digest check — is one C kernel call over the same
        planes.
        """
        batch = KeyBatch.coerce(keys)
        if self._native is not None:
            if not len(batch):
                return np.zeros(0, dtype=np.int64)
            return self._native_query(batch)
        main = self.main.query_batch(batch)
        ancillary = self.ancillary.query_batch(batch)
        return np.where(main != 0, main, ancillary)

    def estimate_cardinality(self) -> float:
        """Occupied main cells + linear counting over the ancillary table
        (paper §IV-A)."""
        return self.main.occupancy() + self.ancillary.estimate_cardinality()

    def heavy_hitters(self, threshold: int) -> dict[int, int]:
        """Main-table flows with more than ``threshold`` packets."""
        return {k: v for k, v in self.main.records().items() if v > threshold}

    def utilization(self) -> float:
        """Main-table utilization (the quantity modelled in §III-B)."""
        return self.main.utilization()

    def evict(self, key: int) -> bool:
        """Control-plane eviction: clear the flow's main-table record and
        its ancillary cell (used by timeout/export engines; not metered).

        Returns:
            Whether a main-table record was removed.
        """
        removed = self.main.remove(key)
        # clear_cell meters a write because the promotion path uses it
        # from the dataplane; eviction is control-plane, so undo it.
        writes_before = self.meter.writes
        self.ancillary.clear_cell(key)
        self.meter.writes = writes_before
        return removed

    def reset(self) -> None:
        """Clear both tables, the promotion counter and the meter."""
        self.main.reset()
        self.ancillary.reset()
        self.promotions = 0
        self.meter.reset()

    @property
    def memory_bits(self) -> int:
        """Main records + ancillary (digest, counter) cells."""
        return self.main.memory_bits + self.ancillary.memory_bits
