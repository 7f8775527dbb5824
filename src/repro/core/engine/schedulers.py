"""Schedulers: one per-block loop, four lanes that carry the discovers.

The scheduler contract is deliberately small::

    outcome = scheduler.run(tasks, ctx)   # tasks: list[BlockTask]

A scheduler must execute every stage of every task exactly once, respecting
the per-task stage order (discover → prune → align → accumulate), stream
results through ``ctx.accumulator``, charge the per-rank cost ledger for the
sparse and alignment work it schedules, and return a
:class:`ScheduleOutcome` with the per-block records and the executed
:class:`~repro.core.engine.timeline.StageTimeline`.

Every scheduler runs the same loop, :func:`run_blocks`.  For each block
``index`` it submits discovers up to ``index + depth``, waits for block
``index``'s discover, charges its sparse seconds, runs prune → align →
charge align → accumulate, and samples the trace counters; a schedule with
``depth >= 1`` then closes its per-rank clock with one
:meth:`~repro.mpi.costmodel.OverlapWindow.run_schedule` replay.  What
differs between schedulers is only the :class:`Lane` that carries the
discovers, the depth, and the contention multipliers:

:class:`SerialScheduler` discovers inline at depth 0 — bulk-synchronous,
bit-for-bit the historical monolithic pipeline loop, raw times, no clock.

:class:`OverlappedScheduler` implements §VI-C pre-blocking on the simulated
clock: inline at depth 1, so ``discover(b+1)`` is issued before block ``b``
is aligned, and both components are charged with the paper's measured
contention slowdowns (~1.13x for alignment; ``1.10 + 0.006 · num_blocks``
for the sparse multiply, growing with the block count).  The clock replay
advances each rank by ``max(align(b), discover(b+1))`` per step and charges
the hidden ``min`` to the informational ``overlap_hidden`` ledger category,
so per-rank clock and ledger stay reconcilable:
``align + spgemm − overlap_hidden == combined clock``.

The threaded and process lanes live in :mod:`~repro.core.engine.executor`
and :mod:`~repro.core.engine.process_executor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ...metrics.timers import Timer
from ...mpi.costmodel import OverlapWindow
from ..align_phase import BlockAlignmentOutput
from ..preblocking import PreblockingModel
from .stages import BlockRecord, BlockTask, StageContext
from .timeline import BlockTiming, StageTimeline

#: Ledger category holding the per-rank seconds hidden by pre-blocking
#: overlap (charged by the clock replay of every ``depth >= 1`` schedule;
#: excluded from reported totals).
OVERLAP_HIDDEN_CATEGORY = "overlap_hidden"


@dataclass
class ScheduleOutcome:
    """What a scheduler hands back to the pipeline."""

    records: list[BlockRecord]
    timeline: StageTimeline
    kernel_seconds: float = 0.0
    measured_align_seconds: float = 0.0
    measured_discover_seconds: float = 0.0
    #: scheduler-specific report entries merged into ``stats.extras`` by the
    #: pipeline (e.g. the process executor's per-lane timings and shm bytes)
    extras: dict = field(default_factory=dict)

    @property
    def candidates_discovered(self) -> int:
        """Total overlap elements discovered across blocks."""
        return sum(rec.candidates for rec in self.records)

    @property
    def alignments_performed(self) -> int:
        """Total pairwise alignments executed across blocks."""
        return sum(rec.aligned_pairs for rec in self.records)

    @property
    def alignment_cells(self) -> int:
        """Total DP cells updated across blocks."""
        return sum(int(rec.cells_per_rank.sum()) for rec in self.records)


class Lane:
    """How one run's discovers are carried; this base runs them inline.

    :func:`run_blocks` calls :meth:`submit` for every block in block order,
    at most ``depth`` blocks ahead of the one it waits for, then
    :meth:`wait` and :meth:`done` once per block in block order, and
    :meth:`close` once at the end of the run, whether it succeeded or not.
    """

    def __init__(self, tasks: list[BlockTask], ctx: StageContext) -> None:
        self.tasks = tasks
        self.ctx = ctx

    def submit(self, index: int) -> None:
        """Start the discover of block ``index`` (here: run it now)."""
        self.tasks[index].discover(self.ctx)

    def wait(self, index: int) -> None:
        """Return once block ``index``'s discover and its side effects landed."""

    def done(self, index: int) -> None:
        """Block ``index`` has been accumulated."""

    def close(self) -> None:
        """Tear the lane down."""

    def extras(self) -> dict:
        """Lane-specific entries for :attr:`ScheduleOutcome.extras`."""
        return {}


def _charge_sparse(ctx: StageContext, seconds: np.ndarray, multiplier: float) -> None:
    """Charge one block's per-rank sparse seconds (scaled) to the ledger."""
    ledger = ctx.comm.ledger
    for rank in range(ctx.comm.size):
        ledger.charge(rank, "spgemm", float(seconds[rank]) * multiplier)


def _charge_alignment(
    ctx: StageContext, output: BlockAlignmentOutput, multiplier: float
) -> None:
    """Charge one block's per-rank alignment seconds (scaled) and counters."""
    ledger = ctx.comm.ledger
    for rank in range(ctx.comm.size):
        ledger.charge(rank, "align", float(output.align_seconds_per_rank[rank]) * multiplier)
        ledger.count(rank, "alignments", float(output.pairs_aligned_per_rank[rank]))
        ledger.count(rank, "alignment_cells", float(output.cells_per_rank[rank]))


def _sample_counters(ctx: StageContext) -> None:
    """One counter sample per block boundary: live-memory gauges, cache
    hit/miss counters, plus every cumulative counter the recorder holds (the
    ledger charge hooks bump per-category totals between samples)."""
    values = {
        "live_blocks": float(ctx.accumulator.live_blocks),
        "live_block_bytes": float(ctx.accumulator.live_block_bytes),
    }
    if ctx.cache is not None:
        cache_counters = ctx.cache.counters()
        values["cache_hits"] = float(cache_counters.get("hits", 0))
        values["cache_misses"] = float(cache_counters.get("misses", 0))
    ctx.trace.sample_counters(**values)


def run_blocks(
    scheduler: "Scheduler", tasks: list[BlockTask], ctx: StageContext
) -> ScheduleOutcome:
    """The per-block loop of every scheduler (see the module docstring).

    Results, records and every deterministic ledger category are the same
    for every lane and depth: discovers complete and land their side
    effects in block order, and the loop charges, aligns and accumulates in
    block order on the calling thread.  Memory is bounded to ``depth + 1``
    live blocks by the accumulator's admission gate.
    """
    depth = scheduler.depth
    align_mult, sparse_mult = scheduler.multipliers(len(tasks))
    timeline = StageTimeline(
        scheduler=scheduler.name,
        align_contention=align_mult,
        sparse_contention=sparse_mult,
        preblock_depth=max(depth, 1),
    )
    outcome = ScheduleOutcome(records=[], timeline=timeline)
    if not tasks:
        return outcome
    if ctx.accumulator.max_live_blocks is None:
        # the memory contract: the current block plus ``depth`` in flight
        ctx.accumulator.max_live_blocks = depth + 1
    phase_timer = Timer()
    submitted = 0
    lane = scheduler.open_lane(tasks, ctx)
    try:
        with phase_timer:
            for index, task in enumerate(tasks):
                while submitted <= min(index + depth, len(tasks) - 1):
                    lane.submit(submitted)
                    submitted += 1
                lane.wait(index)
                _charge_sparse(ctx, task.sparse_seconds, sparse_mult)
                outcome.measured_discover_seconds += task.discover_wall_seconds

                task.prune(ctx)
                output = task.align(ctx)
                _charge_alignment(ctx, output, align_mult)
                record = task.accumulate(ctx)
                outcome.kernel_seconds += output.kernel_seconds
                outcome.measured_align_seconds += output.measured_seconds
                outcome.records.append(record)
                timeline.append(
                    BlockTiming(
                        block_row=task.block_row,
                        block_col=task.block_col,
                        sparse_raw=record.sparse_seconds_per_rank,
                        align_raw=record.align_seconds_per_rank,
                        sparse_scheduled=(
                            record.sparse_seconds_per_rank
                            if sparse_mult == 1.0
                            else record.sparse_seconds_per_rank * sparse_mult
                        ),
                        align_scheduled=(
                            output.align_seconds_per_rank
                            if align_mult == 1.0
                            else output.align_seconds_per_rank * align_mult
                        ),
                    )
                )
                if ctx.trace is not None:
                    _sample_counters(ctx)
                lane.done(index)
    except BaseException:
        # a lane worker parked in the admission gate can never be admitted
        # once the loop stops draining blocks: wake it so close() can join
        ctx.accumulator.abort_admission()
        raise
    finally:
        lane.close()
    timeline.measured_phase_seconds = phase_timer.elapsed

    if depth:
        # replay the executed schedule through the shared depth-k overlap
        # algebra: align + spgemm - overlap_hidden == combined clock per rank
        clock = np.zeros(ctx.comm.size)
        OverlapWindow(ctx.comm.ledger, clock, OVERLAP_HIDDEN_CATEGORY).run_schedule(
            [timing.align_scheduled for timing in timeline.blocks],
            [timing.sparse_scheduled for timing in timeline.blocks],
            depth=depth,
        )
        timeline.combined_per_rank = clock
    outcome.extras = lane.extras()
    return outcome


class Scheduler:
    """Base scheduler: a lane, a depth and contention multipliers.

    Each concrete scheduler defines ``run`` in its own class body
    (delegating to :func:`run_blocks`), so a scheduler's run can be wrapped
    per class by outside instrumentation.
    """

    name: str = "base"
    #: discovers in flight beyond the block being aligned
    depth: int = 0

    def run(self, tasks: list[BlockTask], ctx: StageContext) -> ScheduleOutcome:
        """Execute every stage of every task; return records and timeline."""
        raise NotImplementedError

    def multipliers(self, num_blocks: int) -> tuple[float, float]:
        """``(align, sparse)`` contention multipliers on charged and
        scheduled seconds."""
        return 1.0, 1.0

    def open_lane(self, tasks: list[BlockTask], ctx: StageContext) -> Lane:
        """The lane that carries this run's discovers."""
        return Lane(tasks, ctx)


@dataclass
class SerialScheduler(Scheduler):
    """Bulk-synchronous execution: finish block ``b`` before starting ``b+1``.

    Stage order, ledger charges and streamed edges are bit-identical to the
    pre-engine monolithic pipeline loop (asserted by the scheduler
    equivalence harness in ``tests/test_engine.py``).
    """

    name: str = "serial"

    def run(self, tasks: list[BlockTask], ctx: StageContext) -> ScheduleOutcome:
        return run_blocks(self, tasks, ctx)


@dataclass
class OverlappedScheduler(Scheduler):
    """Pre-blocking (§VI-C): discover the next block while aligning this one.

    The contention parameterization is shared with the closed-form
    :class:`~repro.core.preblocking.PreblockingModel` (which remains the
    reference for Table-I arithmetic); this scheduler *executes* the
    schedule instead of evaluating it after the run.  At most two blocks
    are live at any point: the one being aligned and the one being
    discovered.
    """

    name: str = "overlapped"
    contention: PreblockingModel = field(default_factory=PreblockingModel)
    depth: ClassVar[int] = 1

    def run(self, tasks: list[BlockTask], ctx: StageContext) -> ScheduleOutcome:
        return run_blocks(self, tasks, ctx)

    def multipliers(self, num_blocks: int) -> tuple[float, float]:
        return (
            self.contention.align_contention,
            self.contention.sparse_contention(num_blocks),
        )


def make_scheduler(name: str, **kwargs) -> Scheduler:
    """Factory: ``"serial"``, ``"overlapped"``, ``"threaded"`` or ``"process"``.

    Keyword arguments go to the scheduler — the threaded and process
    executors take ``depth`` (speculative discovery depth).
    """
    if name == "serial":
        return SerialScheduler(**kwargs)
    if name == "overlapped":
        return OverlappedScheduler(**kwargs)
    if name == "threaded":
        from .executor import ThreadedScheduler  # circular-import guard

        return ThreadedScheduler(**kwargs)
    if name == "process":
        from .process_executor import ProcessScheduler  # circular-import guard

        return ProcessScheduler(**kwargs)
    raise ValueError(
        f"unknown scheduler {name!r}; available: serial, overlapped, threaded, process"
    )
