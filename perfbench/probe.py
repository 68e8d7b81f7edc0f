"""Layer probes and summary statistics for the benchmark.

Every per-layer number is taken from *outside* the program: a
:class:`Recorder` replaces a public function or method with a wrapper
that times each call.  Wrapped calls nest; a call's *self time* is its
wall time minus the part of its interval covered by the wrapped calls
made inside it (overlapping children counted once).  Untraced runs
install no wrapper at all.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]

#: percentiles tried for the tail, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def covered_seconds(intervals: Sequence[Interval], lo: float,
                    hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of *intervals*."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if b > lo and a < hi)
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_seconds(span: Interval, children: Sequence[Interval]) -> float:
    """A span's duration minus the part its children cover."""
    return (span[1] - span[0]) - covered_seconds(children, *span)


class Recorder:
    """Times wrapped calls: wall, self time and call count per name."""

    def __init__(self) -> None:
        self.wall: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: open calls: [start, child intervals]
        self._stack: List[list] = []

    def wrap(self, fn: Callable, name) -> Callable:
        """*fn* wrapped; *name* is a string or ``name(args, kwargs)``."""
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            frame = [clock(), []]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                t0 = frame[0]
                self.wall[label] += t1 - t0
                self.self_time[label] += self_seconds((t0, t1), frame[1])
                self.calls[label] += 1
                if stack:
                    stack[-1][1].append((t0, t1))

        return wrapper

    def patch(self, obj, attr: str, name) -> None:
        """Replace ``obj.attr`` by its timed wrapper."""
        setattr(obj, attr, self.wrap(getattr(obj, attr), name))

    def patch_all(self, obj, attrs: Sequence[str], name) -> None:
        for attr in attrs:
            if hasattr(obj, attr):
                self.patch(obj, attr, name)


class Patches:
    """Module-attribute patches that are undone on exit."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, obj, attr: str, value) -> None:
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        for obj, attr, value in reversed(self._saved):
            setattr(obj, attr, value)
        self._saved.clear()


# ----------------------------------------------------------------------
# summary statistics
# ----------------------------------------------------------------------

def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The *pct*-th percentile by the nearest-rank rule."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values: Sequence[float], min_beyond: int = 10
                    ) -> Tuple[float, float, int]:
    """The highest ladder percentile with *min_beyond* samples past it.

    Returns ``(percentile, value, n_samples)``; raises ``ValueError``
    when even the median has fewer than *min_beyond* samples beyond it.
    """
    n = len(values)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= min_beyond:
            return pct, nearest_rank(values, pct), n
    raise ValueError(f"{n} samples leave fewer than {min_beyond} "
                     "beyond the median")


def fastest_total(repeats: Sequence[Sequence[float]]) -> float:
    """Sum over segments of the fastest repetition's time for each.

    *repeats* holds one list of segment durations per repetition of the
    same deterministic work, segment *i* of every repetition covering
    the same part of it.  Other load on the host only ever slows a
    segment down, so the per-segment minimum keeps the program's own
    cost and drops the stretches in which the host was busy elsewhere.
    """
    lengths = {len(r) for r in repeats}
    if len(lengths) != 1 or 0 in lengths:
        raise ValueError(f"repetitions have {sorted(lengths)} segments; "
                         "they must all have the same number, at least 1")
    return sum(min(column) for column in zip(*repeats))


def durations(stamps: Sequence[float]) -> List[float]:
    """Intervals between successive timestamps."""
    return [b - a for a, b in zip(stamps, stamps[1:])]


def lane_fill_ratio(batch_sizes: Sequence[int], lanes: int = 64) -> float:
    """Useful lanes / lanes simulated over word-width fault batches.

    A batch of *n* faults occupies ``n + 1`` lanes (lane 0 runs the
    fault-free golden copy) of a *lanes*-wide machine word.
    """
    if not batch_sizes:
        return 0.0
    return sum(n + 1 for n in batch_sizes) / (lanes * len(batch_sizes))
