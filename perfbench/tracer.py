"""In-memory span tracer that instruments the program from outside.

The benchmark never edits the code it measures.  It replaces public
callables (a bound method on one instance, a module-level function, a
class method) with thin wrappers for the duration of a run and puts
the originals back afterwards:

* :meth:`Tracer.spanned` records one span per call: name, start, end
  and the span that was open when the call began (its parent);
* :meth:`Tracer.tallied` only counts calls and their total time, for
  calls too frequent to span one by one (the scalar ``query``/``evict``
  round trips of timeout expiry).  A tallied call is *not* a child
  span, so its time stays in the caller's self time.

Spans live in a list until :meth:`Tracer.dump` writes them out.  A
span's self time is its duration minus the durations of its direct
children; spans of one thread never overlap, so children cover
disjoint parts of their parent.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter_ns


class Tracer:
    """Spans and tallies of one process (forked workers keep a copy)."""

    def __init__(self):
        #: ``(name, start_ns, end_ns, parent_index)``; parent -1 = root.
        self.spans: list[tuple[str, int, int, int]] = []
        #: name -> [calls, total_ns]
        self.tallies: dict[str, list[int]] = {}
        self._open: list[int] = []

    def spanned(self, fn, name: str):
        """``fn`` wrapped to record one span per call."""
        spans = self.spans
        open_ = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0, 0, open_[-1] if open_ else -1))
            open_.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                open_.pop()
                spans[index] = (name, start, end, spans[index][3])

        return wrapper

    def tallied(self, fn, name: str):
        """``fn`` wrapped to count calls and their total time."""
        tally = self.tallies.setdefault(name, [0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                tally[1] += perf_counter_ns() - start
                tally[0] += 1

        return wrapper

    def reset(self) -> None:
        """Forget everything recorded, keeping existing wrappers live
        (a forked worker starts from the parent's copy)."""
        self.spans.clear()
        self._open.clear()
        for tally in self.tallies.values():
            tally[0] = tally[1] = 0

    def totals(self, root_prefix: str | None = None) -> dict[str, dict[str, int]]:
        """Per span name: ``calls``, inclusive ``ns`` and ``self_ns``.

        With ``root_prefix``, only spans whose outermost ancestor's name
        starts with it count (tallies, which have no parent, are left
        out).
        """
        child_ns = [0] * len(self.spans)
        roots: list[str] = []
        for name, start, end, parent in self.spans:
            # A parent is always appended before its children.
            roots.append(roots[parent] if parent >= 0 else name)
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, int]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            if root_prefix is not None and not roots[index].startswith(root_prefix):
                continue
            row = out.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["ns"] += end - start
            row["self_ns"] += end - start - child_ns[index]
        if root_prefix is None:
            for name, (calls, ns) in self.tallies.items():
                row = out.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
                row["calls"] += calls
                row["ns"] += ns
        return out

    def absorb(self, other: dict) -> None:
        """Add another process's dumped spans and tallies (re-rooted)."""
        base = len(self.spans)
        for name, start, end, parent in other["spans"]:
            self.spans.append((name, start, end, parent + base if parent >= 0 else -1))
        for name, (calls, ns) in other["tallies"].items():
            tally = self.tallies.setdefault(name, [0, 0])
            tally[0] += calls
            tally[1] += ns

    def to_dict(self) -> dict:
        return {"spans": self.spans, "tallies": self.tallies}

    def dump(self, path) -> None:
        """Write spans (one JSON line each) and tallies to ``path``."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps([name, start, end, parent]) + "\n")
            out.write(json.dumps({"tallies": self.tallies}) + "\n")


class Patches:
    """Attribute replacements undone in reverse order on exit."""

    _MISSING = object()

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        # Instance attributes shadow class methods; remember whether the
        # owner had its own entry so restoring does not pin the method.
        old = vars(owner).get(attr, self._MISSING) if hasattr(owner, "__dict__") else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(current_value)``."""
        self.set(owner, attr, make(getattr(owner, attr)))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
