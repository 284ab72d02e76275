"""Measurement helpers of the benchmark: quantiles, arrival schedules, spans.

Pure standard library, so ``test_ledger.py`` checks them without the
program under test.  Three pieces:

* :func:`quantile` -- nearest-rank percentile that reports how many samples
  it rests on and how many lie beyond it (a tail figure needs >= 10 beyond).
* :func:`poisson_schedule` -- seeded open-loop arrival times.
* :class:`Tracer` plus :func:`self_time` / :func:`blocking_path` -- spans
  recorded around calls into each layer, and the arithmetic that turns them
  into per-layer self time.
"""

from __future__ import annotations

import math
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence


# ------------------------------------------------------------------ quantiles
@dataclass(frozen=True)
class Quantile:
    """A percentile of a sample, with the sample size behind it."""

    q: float
    value: float
    n: int
    #: Samples strictly above the percentile's rank.
    beyond: int


def quantile(values: Sequence[float], q: float) -> Quantile:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return Quantile(q, ordered[rank - 1], len(ordered), len(ordered) - rank)


def tail_quantile(
    values: Sequence[float],
    candidates: Sequence[float] = (99.9, 99.0, 95.0, 90.0, 50.0),
    min_beyond: int = 10,
) -> Quantile:
    """The highest candidate percentile with ``min_beyond`` samples above it."""
    for q in candidates:
        result = quantile(values, q)
        if result.beyond >= min_beyond:
            return result
    return quantile(values, min(candidates))


def median(values: Sequence[float]) -> float:
    """Plain median (mean of the middle pair for an even count)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# ------------------------------------------------------------------ arrivals
def poisson_schedule(rate: float, duration: float, seed: int) -> list[float]:
    """Send offsets (seconds from start) of a Poisson process of ``rate``/s.

    The process is conditioned on its expected count: ``round(rate *
    duration)`` arrival times drawn uniformly over the window and sorted,
    which is exactly how a Poisson process places a given number of
    arrivals.  Fixing the count keeps the offered load identical from seed
    to seed, so run-to-run spread reflects the system, not how many requests
    a seed happened to draw.  The same seed gives the same schedule.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = random.Random(seed)
    return sorted(rng.uniform(0.0, duration) for _ in range(round(rate * duration)))


# ---------------------------------------------------------------------- spans
@dataclass
class Span:
    """One timed call into a layer."""

    sid: int
    layer: str
    start: float
    end: float
    parent: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_payload(self) -> list:
        return [self.sid, self.layer, self.start, self.end, self.parent, self.attrs]

    @classmethod
    def from_payload(cls, payload: Sequence[Any]) -> "Span":
        sid, layer, start, end, parent, attrs = payload
        return cls(int(sid), str(layer), float(start), float(end), parent, dict(attrs))


class Tracer:
    """Records spans around wrapped calls, kept in memory until dumped.

    A span's parent is the innermost span open on the same thread; a call
    that crosses a thread (a batcher's executor, a cluster worker) finds its
    parent through :meth:`link`: the most recent open span of the object its
    own object was linked to.  ``sid_base`` keeps ids of several processes'
    tracers disjoint when their spans are merged.
    """

    def __init__(self, sid_base: int = 0):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = sid_base
        self._owner: dict[int, int] = {}
        self._open: dict[int, list[int]] = {}
        self.spans: list[Span] = []

    def link(self, child: object, parent: object) -> None:
        """Calls on ``child`` parent under ``parent``'s open span by default."""
        self._owner[id(child)] = id(parent)

    @contextmanager
    def span(self, layer: str, obj: object = None, **attrs: Any) -> Iterator[Span]:
        stack: list[int] = self._local.__dict__.setdefault("stack", [])
        key = id(obj)
        with self._lock:
            sid = self._next
            self._next += 1
            parent = stack[-1] if stack else None
            if parent is None and key in self._owner:
                opened = self._open.get(self._owner[key])
                parent = opened[-1] if opened else None
            self._open.setdefault(key, []).append(sid)
        record = Span(sid, layer, time.perf_counter(), 0.0, parent, attrs)
        stack.append(sid)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self._open[key].remove(sid)
                self.spans.append(record)

    def record(self, layer: str, start: float, end: float, **attrs: Any) -> Span:
        """Store a span timed by the caller (e.g. one of many concurrent coroutines)."""
        with self._lock:
            span = Span(self._next, layer, start, end, None, attrs)
            self._next += 1
            self.spans.append(span)
        return span

    def dump(self) -> list[list]:
        with self._lock:
            return [span.to_payload() for span in self.spans]


def children_index(spans: Iterable[Span]) -> dict[int | None, list[Span]]:
    """Spans grouped by parent id."""
    index: dict[int | None, list[Span]] = {}
    for span in spans:
        index.setdefault(span.parent, []).append(span)
    return index


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_time(span: Span, children: Sequence[Span]) -> float:
    """A span's duration minus the part of it its children cover."""
    return span.duration - covered(
        span.start, span.end, ((c.start, c.end) for c in children)
    )


def blocking_path(
    root: Span,
    index: Mapping[int | None, Sequence[Span]],
    start: float | None = None,
    end: float | None = None,
) -> dict[str, float]:
    """Seconds of ``root``'s interval attributed to each layer on its blocking path.

    Walking back from the end, the child that finishes last before the
    cursor is the one the parent was waiting on; time no child covers is the
    parent's own.  Parallel children off the blocking path (the faster shard
    of a cluster) are not counted, so the parts add up to the whole:
    ``sum(result.values()) == end - start``.
    """
    start = root.start if start is None else start
    end = root.end if end is None else end
    ledger: dict[str, float] = {}
    pending = [c for c in index.get(root.sid, ()) if c.end > start and c.start < end]
    cursor = end
    while True:
        live = [c for c in pending if c.start < cursor]
        if not live:
            break
        child = max(live, key=lambda c: min(c.end, cursor))
        child_end = min(child.end, cursor)
        child_start = max(child.start, start)
        ledger[root.layer] = ledger.get(root.layer, 0.0) + (cursor - child_end)
        for layer, seconds in blocking_path(child, index, child_start, child_end).items():
            ledger[layer] = ledger.get(layer, 0.0) + seconds
        pending.remove(child)
        cursor = child_start
    ledger[root.layer] = ledger.get(root.layer, 0.0) + (cursor - start)
    return ledger
