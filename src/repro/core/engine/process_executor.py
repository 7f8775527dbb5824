"""Process-pool executor: a GIL-free discover lane over shared memory.

:class:`~repro.core.engine.executor.ThreadedScheduler` overlaps the discover
lane with the foreground align lane on *threads* — genuine concurrency for
the NumPy-heavy SpGEMM only to the extent the kernels release the GIL.
:class:`ProcessScheduler` runs the same speculative depth-``k`` schedule —
the shared :func:`~repro.core.engine.schedulers.run_blocks` loop — with
the discover lane in ``depth`` worker **processes**: the Python interpreter
of the SUMMA stage loop no longer shares the GIL with the aligner, so the
overlap gain survives pure-Python hot loops.  Results stay bit-identical to
:class:`~repro.core.engine.schedulers.SerialScheduler` — records, edges,
stats and every deterministic ledger category — for every depth (asserted
in ``tests/test_engine.py``).

Three mechanisms let the workers compute out of order and in parallel:

**Pure workers, parent-ordered replay.**  A worker computes its block
against a *forked copy* of the run state and mutates nothing the parent can
see.  Before computing it swaps a :class:`RecordingLedger` into its copy of
the communicator (both ``comm.ledger`` and ``comm.collectives.ledger`` —
they alias one object), so every ``charge``/``count`` the SUMMA stages make
is applied locally (``summa`` reads ``per_rank`` to derive its comm delta)
*and* recorded as an ordered event list.  The parent replays those events —
and the engine's ``blocks_computed``/``total_stats``/``peak_block_bytes``
mutations, the accumulator registration, and the cache snapshot — strictly
in block order as the loop waits for each block.  Same charges, same order,
same starting state: float sums land bit-identically to the serial schedule.

**Shared-memory block transport.**  The block's per-rank COO arrays travel
through one ``multiprocessing.shared_memory`` segment per block (name
``repro-psched-{token}-{index}``, parent-chosen so crashed runs can be swept
by name); only a small picklable :class:`_BlockHeader` (array layout, stats,
timings, ledger events) crosses the pipe.  The parent maps the arrays
zero-copy into :class:`~repro.sparse.coo.CooMatrix` views and unlinks the
segment once the block is accumulated and discarded.  A failed run unlinks
every segment that was or could have been created, so ``/dev/shm`` never
leaks (fault-injection test in ``tests/test_engine.py``).

**Shared admission and overlap algebra.**  The parent reserves the
accumulator's live-block slot at submission time, in block order, so
speculation is memory-bounded to ``depth + 1`` live blocks exactly like the
threaded executor; the loop closes the per-rank clock through the same
:class:`repro.mpi.costmodel.OverlapWindow` replay, so
``align + spgemm − overlap_hidden == combined clock`` holds per rank.

Requires the ``fork`` start method (the workers inherit the run state
instead of pickling it); :meth:`ProcessScheduler.run` raises a clear error
on platforms without it.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_context, shared_memory

import numpy as np

from ...distsparse.blocked_summa import OutputBlock
from ...distsparse.summa import SummaResult
from ...metrics.timers import time_call
from ...mpi.costmodel import CostLedger
from ...sparse.coo import CooMatrix
from ...trace import TraceRecorder, activate, maybe_span
from .cache import LANE_COUNTERS, CachedBlock, lane_time_categories
from .schedulers import Lane, ScheduleOutcome, Scheduler, run_blocks
from .stages import BlockTask, StageContext


class RecordingLedger(CostLedger):
    """A :class:`~repro.mpi.costmodel.CostLedger` that journals every mutation.

    Charges and counts are applied to the local (fresh, zero-initialized)
    ledger as usual — ``summa`` reads ``per_rank`` of the comm category to
    derive its per-block comm delta, so reads must keep working — and every
    mutation is appended to :attr:`events` in call order.  The parent replays
    the journal onto the real ledger in block order; since ``charge`` is a
    plain ``+=`` of the recorded value, replay reproduces the serial
    schedule's float sums bit for bit.
    """

    def __init__(self, nranks: int) -> None:
        super().__init__(nranks)
        self.events: list[tuple] = []

    def charge(self, rank: int, category: str, seconds: float) -> None:
        super().charge(rank, category, seconds)
        self.events.append(("charge", int(rank), category, float(seconds)))

    def charge_all(self, category: str, seconds) -> None:
        super().charge_all(category, seconds)
        arr = np.broadcast_to(np.asarray(seconds, dtype=np.float64), (self.nranks,)).copy()
        self.events.append(("charge_all", category, arr))

    def count(self, rank: int, counter: str, amount: float = 1.0) -> None:
        super().count(rank, counter, amount)
        self.events.append(("count", int(rank), counter, float(amount)))

    def count_all(self, counter: str, amounts) -> None:
        super().count_all(counter, amounts)
        arr = np.broadcast_to(np.asarray(amounts, dtype=np.float64), (self.nranks,)).copy()
        self.events.append(("count_all", counter, arr))


def replay_ledger_events(ledger: CostLedger, events: list[tuple]) -> None:
    """Apply a :class:`RecordingLedger` journal onto ``ledger``, in order."""
    for event in events:
        kind = event[0]
        if kind == "charge":
            ledger.charge(event[1], event[2], event[3])
        elif kind == "count":
            ledger.count(event[1], event[2], event[3])
        elif kind == "charge_all":
            ledger.charge_all(event[1], event[2])
        elif kind == "count_all":
            ledger.count_all(event[1], event[2])
        else:  # pragma: no cover - journal is produced by RecordingLedger only
            raise ValueError(f"unknown ledger event kind {kind!r}")


# --------------------------------------------------------------------------- shm transport
#: Prefix of every segment this executor creates; the fault-injection test
#: asserts no ``/dev/shm`` entry with this prefix survives a run.
SEGMENT_PREFIX = "repro-psched"

_ALIGNMENT = 16
_TOKEN_COUNTER = itertools.count()


def _segment_name(token: str, index: int) -> str:
    return f"{SEGMENT_PREFIX}-{token}-{index}"


def _align_up(nbytes: int) -> int:
    return (nbytes + _ALIGNMENT - 1) & ~(_ALIGNMENT - 1)


@dataclass
class _BlockHeader:
    """The picklable part of one worker result (arrays travel via shm)."""

    index: int
    worker_pid: int
    discover_wall_seconds: float
    #: cache hit: the entry itself ships over the pipe, no shm segment
    entry: CachedBlock | None = None
    #: miss: shm layout + everything needed to rebuild the OutputBlock
    shm_name: str | None = None
    shm_bytes: int = 0
    #: per rank: (rows_offset, cols_offset, values_offset, nnz, values_descr)
    rank_specs: list[tuple] | None = None
    result_shape: tuple[int, int] | None = None
    stats: object = None
    comm_seconds: float = 0.0
    compute_seconds_per_rank: np.ndarray | None = None
    flops_per_rank: np.ndarray | None = None
    sparse_seconds: np.ndarray | None = None
    ledger_events: list[tuple] = field(default_factory=list)
    #: spans/counters the worker recorded for this block (same journaling
    #: pattern as ``ledger_events``); merged into the parent recorder with
    #: the worker's pid attribution intact, in block order
    trace_spans: list = field(default_factory=list)
    trace_counters: list = field(default_factory=list)


def _ship_result(result: SummaResult, segment_name: str):
    """Write a SUMMA result's per-rank arrays into one shm segment.

    Returns ``(shm_name, total_bytes, rank_specs)``; an all-empty result
    ships no segment at all (``shm_name=None``).
    """
    layout = []
    total = 0
    for piece in result.per_rank:
        if piece.nnz:
            rows_off = total
            total = _align_up(rows_off + piece.rows.nbytes)
            cols_off = total
            total = _align_up(cols_off + piece.cols.nbytes)
            vals_off = total
            total = _align_up(vals_off + piece.values.nbytes)
        else:
            rows_off = cols_off = vals_off = 0
        layout.append((rows_off, cols_off, vals_off))
    specs = [
        (r, c, v, piece.nnz, np.lib.format.dtype_to_descr(piece.values.dtype))
        for piece, (r, c, v) in zip(result.per_rank, layout)
    ]
    if total == 0:
        return None, 0, specs
    shm = shared_memory.SharedMemory(name=segment_name, create=True, size=total)
    try:
        for piece, (rows_off, cols_off, vals_off) in zip(result.per_rank, layout):
            if not piece.nnz:
                continue
            shape = (piece.nnz,)
            np.ndarray(shape, dtype=np.int64, buffer=shm.buf, offset=rows_off)[:] = piece.rows
            np.ndarray(shape, dtype=np.int64, buffer=shm.buf, offset=cols_off)[:] = piece.cols
            np.ndarray(shape, dtype=piece.values.dtype, buffer=shm.buf, offset=vals_off)[
                :
            ] = piece.values
    finally:
        # the worker's mapping only; the parent attaches by name and unlinks
        shm.close()
    return segment_name, total, specs


class _ShmBlock:
    """Parent-side zero-copy view of a shipped block; owns the segment."""

    def __init__(self, header: _BlockHeader) -> None:
        self.nbytes = header.shm_bytes
        self._shm = None
        if header.shm_name is not None:
            self._shm = shared_memory.SharedMemory(name=header.shm_name)
        per_rank: list[CooMatrix] = []
        for rows_off, cols_off, vals_off, nnz, descr in header.rank_specs:
            dtype = np.lib.format.descr_to_dtype(descr)
            if nnz:
                shape = (nnz,)
                rows = np.ndarray(shape, dtype=np.int64, buffer=self._shm.buf, offset=rows_off)
                cols = np.ndarray(shape, dtype=np.int64, buffer=self._shm.buf, offset=cols_off)
                values = np.ndarray(shape, dtype=dtype, buffer=self._shm.buf, offset=vals_off)
            else:
                rows = np.empty(0, dtype=np.int64)
                cols = np.empty(0, dtype=np.int64)
                values = np.empty(0, dtype=dtype)
            per_rank.append(CooMatrix(header.result_shape, rows, cols, values, check=False))
        self.per_rank = per_rank

    def release(self) -> None:
        """Unlink the segment and drop the mappings.

        Called after ``accumulate`` discarded the block, so the COO views are
        the last references; ``unlink`` first — it removes the ``/dev/shm``
        name unconditionally, whereas ``close`` can only unmap once every
        exported view is gone (a straggler view just delays the unmap to GC,
        never the unlink).
        """
        self.per_rank = []
        shm, self._shm = self._shm, None
        if shm is None:
            return
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        try:
            shm.close()
        except BufferError:  # pragma: no cover - view lifetime is deterministic
            pass


def _sweep_segments(token: str, num_blocks: int) -> None:
    """Unlink every segment a run could have created (teardown hygiene).

    Runs after the pool has been joined, so no worker can re-create a
    segment behind the sweep; segments never created (or already consumed
    and unlinked) are simply absent.  A worker stopped inside
    ``SharedMemory(create=True)`` between ``shm_open`` and ``ftruncate``
    leaves a zero-byte segment that cannot be mapped (``mmap`` raises
    ``ValueError``) and was never registered with the resource tracker, so
    it is unlinked by name instead of attached.
    """
    for index in range(num_blocks):
        name = _segment_name(token, index)
        try:
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        except ValueError:
            import _posixshmem  # POSIX-only, like the fork start method

            try:
                _posixshmem.shm_unlink("/" + name)
            except FileNotFoundError:
                pass
            continue
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        shm.close()


# --------------------------------------------------------------------------- worker side
#: The run context workers inherit through fork.  Set by the parent before
#: the pool exists; workers treat it as read-only apart from swapping their
#: private ledger copy.
_WORKER_CTX: StageContext | None = None

#: The worker process's own span recorder (fresh, parent epoch) — built
#: lazily on first traced block and reused for the worker's lifetime.  The
#: forked copy of the *parent* recorder is never appended to: it already
#: holds the parent's pre-fork spans, and appending would duplicate them
#: on every block header.  ``perf_counter`` is CLOCK_MONOTONIC system-wide
#: on Linux, so the parent epoch is a valid origin in the fork.
_WORKER_TRACE: TraceRecorder | None = None


def _worker_trace(ctx: StageContext) -> TraceRecorder | None:
    """The per-process worker recorder (None when the run is untraced)."""
    global _WORKER_TRACE
    if ctx.trace is None:
        return None
    if _WORKER_TRACE is None:
        _WORKER_TRACE = TraceRecorder(epoch=ctx.trace.epoch)
        # deep sites (the SUMMA stage loop) find the recorder through the
        # active-tracer global; re-point the fork's copy at the worker's own
        activate(_WORKER_TRACE)
    return _WORKER_TRACE


def _worker_discover(index: int, block_row: int, block_col: int, segment_name: str):
    """Compute one block in a worker process; ship the result via shm.

    Pure computation: every side effect lands either in the forked copy of
    the run state (discarded) or in the returned header for the parent to
    replay in block order.
    """
    ctx = _WORKER_CTX
    if ctx is None:  # pragma: no cover - guards against a spawn-context pool
        raise RuntimeError(
            "worker has no inherited run context; ProcessScheduler requires "
            "the 'fork' start method"
        )
    trace = _worker_trace(ctx)
    coords = (block_row, block_col)
    cache = ctx.cache
    if cache is not None:
        with maybe_span(
            trace, "cache_load", "cache", lane="discover", block=coords
        ) as span:
            entry = cache.load(coords)
            span.set(hit=entry is not None)
        if entry is not None:
            header = _BlockHeader(
                index=index,
                worker_pid=os.getpid(),
                discover_wall_seconds=entry.discover_wall_seconds,
                entry=entry,
            )
            if trace is not None:
                header.trace_spans, header.trace_counters = trace.drain()
            return header
    # journal the discover lane's ledger traffic in this worker's forked
    # copy; comm.ledger and comm.collectives.ledger alias one object, so
    # both references must point at the recorder
    recorder = RecordingLedger(ctx.comm.nranks)
    ctx.comm.ledger = recorder
    ctx.comm.collectives.ledger = recorder
    with maybe_span(trace, "discover", "stage", lane="discover", block=coords) as span:
        block, wall_seconds = time_call(ctx.engine.compute_block, block_row, block_col)
        span.set(nnz=block.nnz, flops=float(block.result.flops_per_rank.sum()))
    result = block.result
    if ctx.params.clock == "modeled":
        sparse_seconds = np.array(
            [
                ctx.cost_model.spgemm_seconds(f) + ctx.stripe_seconds
                for f in result.flops_per_rank
            ]
        )
    else:
        sparse_seconds = np.asarray(result.compute_seconds_per_rank, dtype=float)
    with maybe_span(
        trace, "shm_ship", "transport", lane="discover", block=coords
    ) as span:
        shm_name, shm_bytes, rank_specs = _ship_result(result, segment_name)
        span.set(bytes=shm_bytes)
    header = _BlockHeader(
        index=index,
        worker_pid=os.getpid(),
        discover_wall_seconds=wall_seconds,
        shm_name=shm_name,
        shm_bytes=shm_bytes,
        rank_specs=rank_specs,
        result_shape=result.shape,
        stats=block.stats,
        comm_seconds=result.comm_seconds,
        compute_seconds_per_rank=result.compute_seconds_per_rank,
        flops_per_rank=result.flops_per_rank,
        sparse_seconds=sparse_seconds,
        ledger_events=recorder.events,
    )
    if trace is not None:
        header.trace_spans, header.trace_counters = trace.drain()
    return header


# --------------------------------------------------------------------------- parent side
def _admit_block(header: _BlockHeader, task: BlockTask, ctx: StageContext):
    """Replay one worker result's discover side effects, in block order.

    This is the process executor's determinism gate: ledger events, engine
    stat merges, the accumulator registration and the cache snapshot all
    land here, on the parent, strictly in block index order.  Returns the attached
    :class:`_ShmBlock` (``None`` for cache hits and empty blocks shipped
    without a segment).
    """
    if ctx.trace is not None:
        # worker-journaled spans arrive with the header and merge here, in
        # block order, keeping the worker's pid/tid attribution intact
        ctx.trace.merge(header.trace_spans, header.trace_counters)
    coords = (task.block_row, task.block_col)
    cache = ctx.cache
    if header.entry is not None:
        if cache is not None:
            cache.note_hit()
        with maybe_span(
            ctx.trace, "cache_replay", "cache", lane="admit", block=coords
        ):
            task._replay_discover(ctx, header.entry)
        return None
    if cache is not None:
        cache.note_miss()
    with maybe_span(
        ctx.trace, "ledger_replay", "replay", lane="admit", block=coords
    ) as span:
        replay_ledger_events(ctx.comm.ledger, header.ledger_events)
        span.set(events=len(header.ledger_events))
    shm_block = _ShmBlock(header)
    result = SummaResult(
        shape=header.result_shape,
        per_rank=shm_block.per_rank,
        stats=header.stats,
        comm_seconds=header.comm_seconds,
        compute_seconds_per_rank=header.compute_seconds_per_rank,
        flops_per_rank=header.flops_per_rank,
    )
    engine = ctx.engine
    block = OutputBlock(
        block_row=task.block_row,
        block_col=task.block_col,
        row_range=ctx.schedule.row_range(task.block_row),
        col_range=ctx.schedule.col_range(task.block_col),
        result=result,
        stats=header.stats,
    )
    # the mutations compute_block applies, replayed in serial order
    engine.blocks_computed += 1
    engine.total_stats = engine.total_stats.merge(header.stats)
    block_bytes = block.memory_bytes()
    engine.peak_block_bytes = max(engine.peak_block_bytes, block_bytes)
    task.block = block
    task.sparse_seconds = header.sparse_seconds
    task.discover_wall_seconds = header.discover_wall_seconds
    if cache is not None:
        times, counters = ctx.comm.ledger.snapshot(
            lane_time_categories(engine.compute_category), LANE_COUNTERS
        )
        task._capture = (times, counters, header.stats)
    ctx.accumulator.block_computed(block_bytes)
    return shm_block


class _ProcessLane(Lane):
    """Discovers in forked worker processes; side effects replayed in order."""

    def __init__(self, tasks: list[BlockTask], ctx: StageContext, workers: int) -> None:
        global _WORKER_CTX
        super().__init__(tasks, ctx)
        try:
            mp_context = get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-fork platforms only
            raise RuntimeError(
                "scheduler='process' requires the 'fork' multiprocessing start "
                "method (workers inherit the run state); use scheduler="
                "'threaded' on platforms without it"
            ) from exc
        # make sure the shm resource tracker exists *before* the pool forks,
        # so parent and workers share one tracker and the worker-side
        # register / parent-side unlink pairs balance out silently
        try:  # pragma: no cover - tracker is a singleton after first use
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:
            pass
        self._token = f"{os.getpid():x}-{next(_TOKEN_COUNTER):x}"
        self._futures: dict[int, object] = {}
        self._shm_block: _ShmBlock | None = None
        #: pid -> [blocks, discover seconds]
        self._lanes: dict[int, list] = {}
        self._shm_peak_block = 0
        self._shm_total = 0
        self._previous_ctx = _WORKER_CTX
        _WORKER_CTX = ctx
        self._pool = ProcessPoolExecutor(max_workers=workers, mp_context=mp_context)

    def submit(self, index: int) -> None:
        task = self.tasks[index]
        # block-order slot reservation at submission: the loop keeps at most
        # ``depth + 1`` blocks admitted, so this never blocks
        with maybe_span(
            self.ctx.trace,
            "admission_wait",
            "wait",
            lane="submit",
            block=(task.block_row, task.block_col),
        ):
            self.ctx.accumulator.admit_block()
        try:
            self._futures[index] = self._pool.submit(
                _worker_discover,
                index,
                task.block_row,
                task.block_col,
                _segment_name(self._token, index),
            )
        except BrokenProcessPool as exc:
            raise RuntimeError(
                f"discover worker died before block {index} could be submitted "
                "(killed or crashed); the run is torn down and its "
                "shared-memory segments unlinked"
            ) from exc

    def wait(self, index: int) -> None:
        try:
            header = self._futures.pop(index).result()
        except BrokenProcessPool as exc:
            raise RuntimeError(
                f"discover worker died while block {index} was in flight "
                "(killed or crashed); the run is torn down and its "
                "shared-memory segments unlinked"
            ) from exc
        self._shm_block = _admit_block(header, self.tasks[index], self.ctx)
        lane = self._lanes.setdefault(header.worker_pid, [0, 0.0])
        lane[0] += 1
        lane[1] += header.discover_wall_seconds
        if self._shm_block is not None:
            self._shm_peak_block = max(self._shm_peak_block, self._shm_block.nbytes)
            self._shm_total += self._shm_block.nbytes
        trace = self.ctx.trace
        if trace is not None:
            # gauges picked up by the loop's block-boundary counter sample
            trace.set_value("shm_total_bytes", float(self._shm_total))
            trace.set_value("shm_peak_block_bytes", float(self._shm_peak_block))

    def done(self, index: int) -> None:
        if self._shm_block is not None:
            self._shm_block.release()
            self._shm_block = None

    def close(self) -> None:
        global _WORKER_CTX
        self._pool.shutdown(wait=True, cancel_futures=True)
        _WORKER_CTX = self._previous_ctx
        # the pool is joined: nothing can re-create a segment behind us
        _sweep_segments(self._token, len(self.tasks))

    def extras(self) -> dict:
        return {
            "process_lanes": {
                str(pid): {"blocks": int(blocks), "discover_seconds": float(seconds)}
                for pid, (blocks, seconds) in self._lanes.items()
            },
            "shm_peak_block_bytes": float(self._shm_peak_block),
            "shm_total_bytes": float(self._shm_total),
        }


@dataclass
class ProcessScheduler(Scheduler):
    """Speculative depth-``k`` pre-blocking on a process pool (GIL-free lane).

    Parameters
    ----------
    depth:
        Speculative discovery depth ``k``: while block ``b`` is aligned,
        the discover stages of blocks ``b+1..b+k`` are in flight in worker
        processes.  ``1`` is classic §VI-C pre-blocking.  The pool has
        ``depth`` worker processes: at most ``depth`` discovers are ever in
        flight, so more would idle.  Per-worker lane statistics are
        reported in ``ScheduleOutcome.extras["process_lanes"]``.
    """

    name: str = "process"
    depth: int = 1

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be >= 1")

    def run(self, tasks: list[BlockTask], ctx: StageContext) -> ScheduleOutcome:
        return run_blocks(self, tasks, ctx)

    def open_lane(self, tasks: list[BlockTask], ctx: StageContext) -> Lane:
        return _ProcessLane(tasks, ctx, workers=self.depth)
