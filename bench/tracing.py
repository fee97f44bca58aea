"""Span tracing from the benchmark's own side of the library boundary.

``install`` replaces public module attributes of ``partition_posets`` with
wrappers that record one span per call: (operation id, span id, parent span
id, name, start, end, returned None).  Spans stay in memory until the
benchmark writes them out once at the end.  Nothing under ``src/`` changes:
the library looks these names up in its module globals at call time, so a
call made through a patched attribute is recorded.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# The only attributes the benchmark wraps; every one is a public name.
SPANNED = (
    ("core", "normalize_instance"),
    ("cli", "normalize_instance"),  # cli binds its own reference
    ("cli", "main"),
    ("solver", "solve"),
    ("solver", "solve_min_fastpath"),
    ("solver", "solve_corollary"),
    ("solver", "solve_pruned"),
    ("solver", "solve_dp"),
    ("solver", "solve_q_enum"),
    ("solver", "solve_brute"),
    ("poset", "build_hasse"),
    ("poset", "poset_height"),
    ("poset", "poset_width"),
    ("poset", "verify_structure"),
    ("counting", "q_rank_profile"),
)
# Counted only (no span): called once per frontier cover above n = 20.
COUNTED = (("solver", "membership"),)


class Tracer:
    """Span and counter store for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = ""
        self._stack: list[int] = []
        self._next = 0
        self._saved: list[tuple] = []

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append((self.op, sid, parent, name, t0, t1, result is None))

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Patch every listed attribute; ``uninstall`` restores them."""
        for table, make in ((SPANNED, self._span), (COUNTED, self._counter)):
            for mod_name, attr in table:
                mod = importlib.import_module(f"partition_posets.{mod_name}")
                fn = getattr(mod, attr)
                home = fn.__module__.rsplit(".", 1)[-1]
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, make(f"{home}.{attr}", fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()


def self_times(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: call count, total seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    child_time: dict[tuple, float] = defaultdict(float)
    for op, _sid, parent, _name, t0, t1, _none in spans:
        if parent >= 0:
            child_time[(op, parent)] += t1 - t0
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for op, sid, _parent, name, t0, t1, _none in spans:
        row = out[name]
        row["calls"] += 1
        row["total"] += t1 - t0
        row["self"] += t1 - t0 - child_time[(op, sid)]
    return out
