"""Shared-memory plane layout for HashFlow collectors.

A HashFlow collector keeps its entire dataplane state in a handful of
flat numpy arrays — *planes* (:mod:`repro.core.maintable`,
:mod:`repro.core.ancillary`).
This module maps that state onto a :class:`~repro.shm.segments.Segment`
so several processes can mutate one collector's tables in place:

* :func:`plane_specs` describes a collector's planes as ``(count,
  dtype)`` pairs in a **canonical order** (main-table key lo/hi,
  counters, optional byte plane, then ancillary digests and counters);
* :func:`adopt_planes` swaps carved segment views in for the
  collector's private arrays (copying current contents, so adoption is
  transparent mid-lifetime);
* the canonical order is a function of the collector's *spec* alone,
  so a worker that rebuilds the same spec computes the same layout and
  attaches to the same offsets — no layout metadata crosses the pipe.

Only spec kinds in :data:`SHARED_PLANE_KINDS` participate: their
dataplane state is exactly these planes, nothing else (hash seeds and
sizes are rebuilt deterministically from the spec).
"""

from __future__ import annotations

import numpy as np

from repro.shm.segments import Segment, carve, layout_bytes

#: Collector spec kinds whose dataplane state is fully plane-shareable.
SHARED_PLANE_KINDS = frozenset({"hashflow"})


def _tables(collector):
    """The collector's (main, ancillary) tables, or a clear error."""
    from repro.core.ancillary import AncillaryTable
    from repro.core.maintable import MainTable

    main = getattr(collector, "main", None)
    ancillary = getattr(collector, "ancillary", None)
    if not isinstance(main, MainTable) or not isinstance(
        ancillary, AncillaryTable
    ):
        raise TypeError(
            f"{type(collector).__name__} does not hold HashFlow table "
            "planes to share"
        )
    return main, ancillary


def plane_arrays(collector) -> list[np.ndarray]:
    """The collector's state planes, in canonical order."""
    main, ancillary = _tables(collector)
    planes = [main.k_lo, main.k_hi, main.counts]
    if main.bytes is not None:
        planes.append(main.bytes)
    planes.extend([ancillary.digests, ancillary.counts])
    return planes


def plane_specs(collector) -> list[tuple[int, np.dtype]]:
    """``(count, dtype)`` of every plane, in canonical order."""
    return [(arr.size, arr.dtype) for arr in plane_arrays(collector)]


def adopt_planes(collector, views: list[np.ndarray], copy: bool = True) -> None:
    """Swap carved segment views in for the collector's private planes.

    Args:
        collector: a HashFlow collector (see :func:`plane_arrays`).
        views: arrays from :func:`~repro.shm.segments.carve`, in the
            same canonical order.
        copy: copy current plane contents into the views first (the
            owner's path — state built before sharing survives).  A
            worker attaching to live planes passes False: the shared
            state is already authoritative.
    """
    main, ancillary = _tables(collector)
    current = plane_arrays(collector)
    if len(views) != len(current):
        raise ValueError(
            f"expected {len(current)} plane views, got {len(views)}"
        )
    it = iter(views)

    def take(old: np.ndarray) -> np.ndarray:
        view = next(it)
        if view.dtype != old.dtype or view.size != old.size:
            raise ValueError(
                f"plane view mismatch: {view.dtype}[{view.size}] for "
                f"{old.dtype}[{old.size}]"
            )
        if copy:
            view[:] = old
        return view

    main.k_lo = take(main.k_lo)
    main.k_hi = take(main.k_hi)
    main.counts = take(main.counts)
    if main.bytes is not None:
        main.bytes = take(main.bytes)
    ancillary.digests = take(ancillary.digests)
    ancillary.counts = take(ancillary.counts)


def segment_for_planes(collectors, label: str = "planes"):
    """One owned segment sized for several collectors' planes.

    Returns:
        ``(segment, per_collector_views)`` where ``per_collector_views``
        lists each collector's carved views in canonical order
        (collectors are laid out consecutively, in input order).
    """
    from repro.shm.segments import create_segment

    specs = []
    counts = []
    for collector in collectors:
        cs = plane_specs(collector)
        counts.append(len(cs))
        specs.extend(cs)
    segment = create_segment(max(1, layout_bytes(specs)), label=label)
    views = carve(segment, specs)
    grouped = []
    pos = 0
    for n in counts:
        grouped.append(views[pos : pos + n])
        pos += n
    return segment, grouped


def carve_for_planes(segment: Segment, collectors) -> list[list[np.ndarray]]:
    """Carve an existing segment with the layout of ``collectors``.

    The attach-side mirror of :func:`segment_for_planes`: a worker that
    rebuilt the same collector specs recovers the same per-collector
    view groups.
    """
    specs = []
    counts = []
    for collector in collectors:
        cs = plane_specs(collector)
        counts.append(len(cs))
        specs.extend(cs)
    views = carve(segment, specs)
    grouped = []
    pos = 0
    for n in counts:
        grouped.append(views[pos : pos + n])
        pos += n
    return grouped
