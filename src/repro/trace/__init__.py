"""Structured run tracing: per-stage spans with Perfetto export.

Everything the repo records about a run is an aggregate — ``SearchStats``
totals, ledger category sums, ``StageTimeline`` matrices.  This package
records the run as it happened: a :class:`TraceRecorder` collects
**spans** — ``(name, category, t_start, t_end, pid, tid, lane, block,
attrs)`` — for every stage of every block (discover / prune / align /
accumulate), cache loads and replays, SUMMA broadcast stages and local
multiplies, admission waits, MCL iterations and top-level pipeline
phases, plus
**counter series** (live blocks, ledger category totals, shm bytes,
cache hits) sampled at block boundaries.

Enable it per run with ``PastisParams.trace=True`` (recorder attached to
``SearchResult.trace``) and/or ``PastisParams.trace_dir="..."`` (the
pipeline additionally writes ``trace.jsonl`` + ``trace.json`` into the
directory, the latter loadable in Perfetto / ``chrome://tracing``).
Tracing is **off by default and zero-cost when disabled**: instrumented
sites guard on ``ctx.trace is None`` (or the no-op handle from
:func:`maybe_span`), and it is provably non-perturbing — records, edges
and every deterministic ledger category are bit-identical with tracing
on (asserted in ``tests/test_trace.py``).

The recorder is the run's **one instrumentation stream**.  A run with
``PastisParams.metrics`` records into the same kind of recorder (kept off
``SearchResult.trace`` unless tracing is on too), and
:meth:`repro.obs.MetricsHub.from_trace` reduces it to the run's metrics:
ledger seconds from the cumulative ``ledger.<category>`` counters the
``CostLedger`` charge hook bumps, kernel seconds and compression factors
from the per-multiply ``spgemm_kernel`` spans, phase seconds from the
``phase`` spans.

All four schedulers run one block loop and emit through one recorder:
Serial / Overlapped / Threaded record directly (the threaded executor's
single worker thread records its ``discover`` and ``admission_wait``
spans, in block order);
:class:`~repro.core.engine.process_executor.ProcessScheduler` workers
journal spans and counters into the per-block result header — the same
pattern as their ``RecordingLedger`` ledger journal — and the parent
merges them in block order with the worker's pid attribution intact.

Deep sites without a :class:`~repro.core.engine.stages.StageContext`
(the SUMMA stage loop, Markov clustering)
find the recorder through the module-level active tracer
(:func:`activate` / :func:`current_tracer`), which the pipeline installs
for the duration of an observed run and which forked workers re-point at
their own recorder.

CLI::

    python -m repro.trace summarize <trace.jsonl | trace_dir>
    python -m repro.trace export    <trace.jsonl> [-o out.trace.json]
    python -m repro.trace diff      <a.jsonl> <b.jsonl>
"""

from __future__ import annotations

from .export import (
    CHROME_NAME,
    JSONL_NAME,
    TRACE_SCHEMA_VERSION,
    chrome_from_jsonl,
    diff_text,
    read_jsonl,
    summarize_text,
    write_chrome,
    write_jsonl,
    write_trace,
)
from .recorder import CounterSample, Span, TraceRecorder, maybe_span

#: The run-scoped active recorder — the process's only active-sink global.
#: A plain module global (not a thread-local): the threaded executor's
#: worker thread and forked worker processes must all see it.  One
#: observed run at a time per process — the same cardinality as the
#: process executor's ``_WORKER_CTX``.
_ACTIVE: TraceRecorder | None = None


def activate(recorder: TraceRecorder) -> None:
    """Install ``recorder`` as the process-wide active tracer."""
    global _ACTIVE
    _ACTIVE = recorder


def deactivate() -> None:
    """Clear the active tracer (pipeline teardown)."""
    global _ACTIVE
    _ACTIVE = None


def current_tracer() -> TraceRecorder | None:
    """The active recorder, or None when tracing and metrics are off (the
    common case)."""
    return _ACTIVE


__all__ = [
    "CHROME_NAME",
    "CounterSample",
    "JSONL_NAME",
    "Span",
    "TRACE_SCHEMA_VERSION",
    "TraceRecorder",
    "activate",
    "chrome_from_jsonl",
    "current_tracer",
    "deactivate",
    "diff_text",
    "maybe_span",
    "read_jsonl",
    "summarize_text",
    "write_chrome",
    "write_jsonl",
    "write_trace",
]
