"""The span/counter recorder behind :mod:`repro.trace`.

A :class:`TraceRecorder` collects two kinds of events:

* **spans** — named, categorized ``[t_start, t_end)`` intervals with
  process/thread attribution (``pid``/``tid``), an optional output-block
  coordinate, a display ``lane`` and free-form attributes.  Spans are
  emitted either through the :meth:`TraceRecorder.span` context manager
  (times taken at enter/exit) or through :meth:`TraceRecorder.add_span`
  for intervals the caller already timed (e.g. one SUMMA broadcast
  stage).
* **counter samples** — ``(name, t, value)`` points of a time series.
  Cheap *cumulative* counters (:meth:`bump`, :meth:`set_value`) are plain
  dictionary updates on the hot path; they only become events when
  :meth:`sample_counters` materializes the current values, which the
  schedulers call at block boundaries.  This is what keeps per-charge
  ledger hooks affordable: a ``charge()`` costs one dict add, not one
  event allocation.

Timestamps are ``time.perf_counter()`` seconds.  On Linux that clock is
``CLOCK_MONOTONIC`` — system-wide, not per-process — so a recorder
*epoch* taken in the parent is a valid origin for spans recorded in
forked worker processes: :class:`ProcessScheduler` workers build a fresh
recorder sharing the parent's epoch, journal their spans alongside the
existing per-block ledger journal, and the parent merges them with the
worker's ``pid`` already baked in (see
:mod:`repro.core.engine.process_executor`).

Thread safety: all mutation happens under one lock; recording from the
threaded executor's worker pool and the main align lane concurrently is
safe.  The recorder never touches run state — it only appends to its own
lists — which is what makes tracing provably non-perturbing (asserted by
the bit-identity tests in ``tests/test_trace.py``).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    """One named interval. ``attrs`` is a tuple of ``(key, value)`` pairs
    (hashable, compactly picklable — workers ship spans over the pipe)."""

    name: str
    category: str
    t_start: float
    t_end: float
    pid: int
    tid: int
    lane: str = "main"
    rank: int | None = None
    block: tuple[int, int] | None = None
    attrs: tuple = ()

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def attrs_dict(self) -> dict:
        return dict(self.attrs)


@dataclass(frozen=True)
class CounterSample:
    """One point of a counter time series."""

    name: str
    t: float
    value: float
    pid: int


class _SpanHandle:
    """Context manager recording one span; ``set(**attrs)`` adds attributes."""

    __slots__ = ("_recorder", "_name", "_category", "_lane", "_rank", "_block",
                 "_attrs", "_t0")

    def __init__(self, recorder, name, category, lane, rank, block, attrs):
        self._recorder = recorder
        self._name = name
        self._category = category
        self._lane = lane
        self._rank = rank
        self._block = block
        self._attrs = attrs
        self._t0 = 0.0

    def __enter__(self) -> "_SpanHandle":
        self._t0 = time.perf_counter()
        return self

    def set(self, **attrs) -> None:
        """Attach attributes discovered while the span is open."""
        self._attrs.update(attrs)

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.perf_counter()
        if exc_type is not None:
            self._attrs["error"] = exc_type.__name__
        self._recorder.add_span(
            self._name,
            self._category,
            self._t0,
            t1,
            lane=self._lane,
            rank=self._rank,
            block=self._block,
            **self._attrs,
        )
        return False


class _NullHandle:
    """The disabled-tracing stand-in: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullHandle":
        return self

    def set(self, **attrs) -> None:
        pass

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullHandle()


def maybe_span(recorder, name: str, category: str, *, lane: str = "main",
               rank: int | None = None, block: tuple[int, int] | None = None,
               **attrs):
    """A span on ``recorder``, or the shared no-op handle when it is None.

    The single guard instrumented code needs: hot sites write
    ``with maybe_span(ctx.trace, ...)`` and pay only a null context manager
    when tracing is disabled.
    """
    if recorder is None:
        return NULL_SPAN
    return recorder.span(name, category, lane=lane, rank=rank, block=block, **attrs)


class TraceRecorder:
    """Collects spans and counter series for one run (or one worker's share)."""

    def __init__(self, epoch: float | None = None) -> None:
        #: origin all exported timestamps are relative to (perf_counter
        #: seconds); pass the parent's epoch when building worker recorders
        self.epoch = time.perf_counter() if epoch is None else float(epoch)
        #: pid of the process that built the recorder (the parent, in
        #: exported traces — worker spans carry their own pid)
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.counters: list[CounterSample] = []
        self._cumulative: dict[str, float] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ spans
    def span(self, name: str, category: str, *, lane: str = "main",
             rank: int | None = None, block: tuple[int, int] | None = None,
             **attrs) -> _SpanHandle:
        """Context manager measuring one span (times taken at enter/exit)."""
        return _SpanHandle(self, name, category, lane, rank, block, attrs)

    def add_span(self, name: str, category: str, t_start: float, t_end: float,
                 *, lane: str = "main", rank: int | None = None,
                 block: tuple[int, int] | None = None, **attrs) -> None:
        """Record an interval the caller timed itself (perf_counter seconds)."""
        span = Span(
            name=name,
            category=category,
            t_start=float(t_start),
            t_end=float(t_end),
            pid=os.getpid(),
            tid=threading.get_ident(),
            lane=lane,
            rank=rank,
            block=block,
            attrs=tuple(sorted(attrs.items())),
        )
        with self._lock:
            self.spans.append(span)

    # ------------------------------------------------------------------ counters
    def bump(self, name: str, delta: float) -> None:
        """Add to a cumulative counter (cheap; no event until sampled)."""
        with self._lock:
            self._cumulative[name] = self._cumulative.get(name, 0.0) + delta

    def set_value(self, name: str, value: float) -> None:
        """Overwrite a cumulative counter (cache replay restores absolutes)."""
        with self._lock:
            self._cumulative[name] = float(value)

    def cumulative(self) -> dict[str, float]:
        """The cumulative counters' current values (a copy)."""
        with self._lock:
            return dict(self._cumulative)

    def sample_counters(self, **values: float) -> None:
        """Materialize counter samples: the given values plus every
        cumulative counter, all stamped with one timestamp.  Schedulers call
        this at span boundaries (after each block's accumulate)."""
        now = time.perf_counter()
        pid = os.getpid()
        with self._lock:
            for name, value in values.items():
                self.counters.append(CounterSample(name, now, float(value), pid))
            for name, value in self._cumulative.items():
                self.counters.append(CounterSample(name, now, float(value), pid))

    # ------------------------------------------------------------------ worker journaling
    def drain(self) -> tuple[list[Span], list[CounterSample]]:
        """Return and clear the recorded events (worker-side, per block:
        the drained lists ride the block header to the parent)."""
        with self._lock:
            spans, self.spans = self.spans, []
            counters, self.counters = self.counters, []
        return spans, counters

    def merge(self, spans, counters=()) -> None:
        """Append events journaled elsewhere (parent-side worker merge).

        Called from the process executor's block-ordered replay, so worker
        spans land in the parent recorder in block order even though they
        were produced concurrently; each span keeps the pid/tid of the
        worker that produced it.
        """
        with self._lock:
            self.spans.extend(spans)
            self.counters.extend(counters)

    # ------------------------------------------------------------------ views
    def snapshot(self) -> tuple[list[Span], list[CounterSample]]:
        """A consistent copy of the recorded events."""
        with self._lock:
            return list(self.spans), list(self.counters)

    def summary(self) -> dict[tuple[str, str], dict[str, float]]:
        """Aggregate spans by ``(category, name)``: count and total seconds."""
        spans, _ = self.snapshot()
        out: dict[tuple[str, str], dict[str, float]] = {}
        for span in spans:
            key = (span.category, span.name)
            agg = out.setdefault(key, {"count": 0.0, "seconds": 0.0})
            agg["count"] += 1
            agg["seconds"] += span.duration
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceRecorder(spans={len(self.spans)}, "
            f"counters={len(self.counters)}, pid={self.pid})"
        )
