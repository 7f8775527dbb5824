"""Measured-clock threaded executor: real concurrency for §VI-C pre-blocking.

:class:`~repro.core.engine.schedulers.OverlappedScheduler` *simulates* the
paper's pre-blocking on a modeled clock.  :class:`ThreadedScheduler` is the
executor that actually runs it: the discover stages of blocks ``b+1..b+k``
execute on one worker thread **genuinely concurrent** with the main thread
aligning block ``b``, generalizing pre-blocking to speculative depth
``k >= 1`` (``PastisParams.preblock_depth``).  Under ``clock="measured"``
the per-rank stage seconds are real wall time, so the overlap gain is a
hardware fact rather than a model output; under ``clock="modeled"`` the
same schedule runs (results are identical either way) and the clock algebra
consumes modeled seconds.

The block loop is the shared
:func:`~repro.core.engine.schedulers.run_blocks`; this module only supplies
its lane.  Three properties keep concurrency from ever touching results:

**One ordered worker.**  The lane is a single worker thread, which runs its
jobs FIFO in submission order, and the loop submits in block order.  So
every discover — its accumulator admission, its SUMMA stats merge and the
communication ledger charges made inside ``summa`` — happens in exactly the
sequence the serial scheduler produces, and records, edges and ledger
categories are bit-identical to
:class:`~repro.core.engine.schedulers.SerialScheduler` for every depth.
Concurrency lives *between* the lanes (discover vs. align), never inside
the bookkeeping.

**Admission-bounded memory.**  Before computing, the worker reserves a
live-block slot from the
:class:`~repro.core.engine.accumulator.StreamingGraphAccumulator`
(``max_live_blocks = depth + 1``), so speculation can never hold more than
``k + 1`` blocks; the measured peak is reported via ``peak_live_blocks``.

**Shared overlap algebra.**  The per-rank clock is derived by replaying the
executed schedule through :class:`repro.mpi.costmodel.OverlapWindow`, so
the ledger invariant ``align + spgemm − overlap_hidden == combined clock``
holds per rank for *measured* seconds exactly as it does for modeled ones.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ...trace import maybe_span
from .schedulers import Lane, ScheduleOutcome, Scheduler, run_blocks
from .stages import BlockTask, StageContext


class _ThreadLane(Lane):
    """Discovers on one worker thread, in submission (= block) order."""

    def __init__(self, tasks: list[BlockTask], ctx: StageContext) -> None:
        super().__init__(tasks, ctx)
        self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="discover")
        self._futures: dict[int, object] = {}

    def _discover(self, task: BlockTask) -> None:
        ctx = self.ctx
        with maybe_span(
            ctx.trace,
            "admission_wait",
            "wait",
            lane="discover",
            block=(task.block_row, task.block_col),
        ):
            ctx.accumulator.admit_block()
        task.discover(ctx)

    def submit(self, index: int) -> None:
        self._futures[index] = self._pool.submit(self._discover, self.tasks[index])

    def wait(self, index: int) -> None:
        self._futures.pop(index).result()

    def close(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)


@dataclass
class ThreadedScheduler(Scheduler):
    """Speculative depth-``k`` pre-blocking on a real worker thread.

    Parameters
    ----------
    depth:
        Speculative discovery depth ``k``: while block ``b`` is aligned,
        the discover stages of blocks ``b+1..b+k`` are in flight.  ``1``
        is classic §VI-C pre-blocking (one block ahead).  The discover lane
        is one thread: discovers run strictly in block order, matching both
        the FIFO background lane of the
        :class:`~repro.mpi.costmodel.OverlapWindow` clock model and the
        serial schedule's shared-state mutation order that the bit-identity
        guarantee rests on.  Parallelism lives between the discover lane and
        the main thread's align lane.
    """

    name: str = "threaded"
    depth: int = 1

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be >= 1")

    def run(self, tasks: list[BlockTask], ctx: StageContext) -> ScheduleOutcome:
        return run_blocks(self, tasks, ctx)

    def open_lane(self, tasks: list[BlockTask], ctx: StageContext) -> Lane:
        return _ThreadLane(tasks, ctx)
