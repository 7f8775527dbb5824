"""The stage-graph execution engine of the incremental similarity search.

The pipeline's block loop is decomposed into an explicit graph of per-block
stages, executed by pluggable schedulers:

* :mod:`repro.core.engine.stages` — :class:`BlockTask`, one node of the
  graph per output block, with the four stages ``discover`` (blocked SUMMA
  SpGEMM), ``prune`` (load balancing + common-k-mer filter), ``align``
  (batched Smith–Waterman) and ``accumulate`` (stream edges out, discard
  the block), plus the shared :class:`StageContext`;
* :mod:`repro.core.engine.accumulator` — the streaming
  :class:`StreamingGraphAccumulator` that consumes each block's edges the
  moment they are produced, so peak memory is bounded by the *live* blocks
  (one for the serial schedule, two under depth-1 pre-blocking, ``k + 1``
  under speculative depth ``k``); with ``max_live_blocks`` set it is also
  the admission gate that enforces that bound on a concurrent schedule;
* :mod:`repro.core.engine.timeline` — the per-block scheduled timings from
  which the Table-I :class:`~repro.core.preblocking.PreblockingReport` is
  *derived* (it is no longer computed post hoc by
  ``PreblockingModel.evaluate`` inside the pipeline);
* :mod:`repro.core.engine.schedulers` — the scheduler contract and the
  one per-block loop every scheduler runs,
  :func:`~repro.core.engine.schedulers.run_blocks`: for each block it
  submits discovers up to ``depth`` blocks ahead, waits for the block's
  discover, charges sparse, runs prune → align → charge align →
  accumulate, and samples the trace counters; a ``depth >= 1`` schedule
  then closes its per-rank clock with one replay through the shared
  depth-``k`` overlap algebra (:class:`repro.mpi.costmodel.OverlapWindow`),
  so ``align + spgemm − overlap_hidden == combined clock`` holds for
  modeled and measured seconds alike.  A scheduler supplies only the
  *lane* that carries the discovers, a depth and contention multipliers.
  The module holds the two inline lanes: :class:`SerialScheduler` (depth
  0, bit-identical to the historical monolithic loop) and
  :class:`OverlappedScheduler` (§VI-C pre-blocking *simulated*: depth 1,
  ``discover(b+1)`` before ``align(b)`` on the modeled clock, with the
  paper's contention slowdowns on charged and scheduled seconds);
* :mod:`repro.core.engine.executor` — :class:`ThreadedScheduler`, the
  *measured-clock executor* of §VI-C: where the paper overlaps the next
  block's CPU-side SpGEMM with the current block's GPU alignment, its lane
  runs ``discover(b+1..b+k)`` on one worker thread genuinely concurrent
  with the main thread's ``align(b)``, generalizing pre-blocking to
  speculative depth ``k`` (``PastisParams.preblock_depth``).  One thread
  runs its jobs FIFO in submission order, so discovers and their
  admissions happen in block order and records, edges and ledger
  categories stay bit-identical to :class:`SerialScheduler` for every
  depth; memory is bounded to ``k + 1`` live blocks by the accumulator's
  admission gate.

* :mod:`repro.core.engine.process_executor` — :class:`ProcessScheduler`,
  the *GIL-free* variant of the threaded executor: its lane runs discovers
  in ``depth`` worker **processes** (``fork``) that execute the SpGEMM
  stage against a forked copy of the run state and ship the block's
  CSR/COO arrays back zero-copy through ``multiprocessing.shared_memory``
  segments, with a small picklable header carrying stats and an ordered
  journal of ledger events.  The parent replays every side effect strictly
  in block order, so records, edges, stats and every deterministic ledger
  category stay bit-identical to :class:`SerialScheduler` for every depth.

* :mod:`repro.core.engine.cache` — the content-hashed :class:`StageCache`,
  the engine's analogue of the synpp/pisa declare-then-decide pipeline
  design: stages *declare* what they depend on (the canonicalized parameter
  subset, content digests of the operand stripes and input sequences, a
  kernel/schema version tag — all folded into a deterministic per-block
  key) and the framework *decides* what actually runs — a stored block is
  replayed instead of recomputed.  The cache invariant is that a hit is
  bit-identical to recomputation: an entry carries the block's outputs
  *and* the absolute post-block ledger state of the discover lane, which
  replay restores while the schedulers recharge their own categories
  through the ordinary code paths; entries are therefore shareable across
  all four schedulers, and ``PastisPipeline.run(resume=True)`` continues a
  killed run from its last completed block.

The schedulers' block loop — not the pipeline — owns execution order and
ledger charging; the pipeline builds the task list and hands it over.

**Choosing a scheduler** (``PastisParams.scheduler``, or derived from
``pre_blocking``/``clock``/``preblock_depth`` when ``None``):

* ``"serial"`` — bulk-synchronous reference schedule.  Simplest, no
  concurrency; the baseline every other scheduler is bit-identical to.
* ``"overlapped"`` — §VI-C pre-blocking *simulated* on the modeled clock
  with the paper's contention multipliers.  Choose it for paper-faithful
  Table-I numbers; no real concurrency happens.
* ``"threaded"`` — the schedule actually executed, discovers on one
  worker thread.  Choose it for measured-clock runs or depth > 1.  Real
  overlap is limited
  by the GIL: it helps exactly when the discover lane spends its time in
  NumPy kernels that release the GIL, and collapses when the lane is
  dominated by pure-Python stage orchestration.
* ``"process"`` — the same schedule with discover workers in *processes*
  (shared-memory block transport).  The GIL does not apply, so overlap
  survives Python-heavy discover work; costs fork + shm-mapping overhead
  per block, so prefer ``"threaded"`` for tiny blocks and ``"process"``
  when blocks are large enough to amortize it (see
  ``benchmarks/bench_process_pool.py``).  Requires the ``fork`` start
  method.

All four produce bit-identical records, edges, stats and deterministic
ledger categories; only wall-clock behavior differs.

**Observability** (``PastisParams.trace`` / ``metrics``; see
:mod:`repro.trace`): every scheduler emits spans through the optional
``StageContext.trace`` recorder — the run's one instrumentation sink,
present whenever tracing or metrics are on — and each span category maps
onto one of the mechanisms above —

* ``stage`` spans (``discover``/``prune``/``align``/``accumulate``) — the
  four :class:`BlockTask` stages, wherever they execute (main thread,
  the threaded lane's worker thread, or a worker process);
* ``cache`` spans (``cache_load``/``cache_replay``) — the
  :class:`StageCache` consult and the bit-identical replay of a hit;
* ``wait`` spans — ``admission_wait`` is time blocked in the
  accumulator's ``admit_block`` admission gate (the ``k + 1`` live-block
  memory bound), on the threaded worker or the process executor's parent;
* ``summa`` spans (``summa_stage``/``summa_merge``) — the broadcast
  stages inside one discover's 2D SUMMA;
* ``spgemm`` spans — ``spgemm_kernel`` is one rank's local multiply
  (backend, stage, flops, measured compression factor);
* ``transport``/``replay`` spans (``shm_ship``/``ledger_replay``) — the
  process executor's shared-memory shipping and the parent's block-ordered
  journal replay;
* counter series (live blocks, ``ledger.<category>`` totals, shm bytes,
  cache hits) are sampled once per block at the accumulate boundary.

Serial/Overlapped/Threaded record directly into the run's recorder; the
process executor's workers journal spans into the block header (the same
pattern as their ledger journal) and the parent merges them in block
order with worker-pid attribution.  Instrumentation is off by default,
zero-cost when disabled, and non-perturbing: results stay bit-identical
with it on.

**Tracing vs metrics** — two views of that one event stream; pick by the
question being asked:

* *"When did what happen inside this one run?"* → **tracing**
  (``PastisParams.trace``/``trace_dir``, :mod:`repro.trace`): the
  recorder itself — ordered spans with pid/tid attribution and
  block-boundary counter series, exported as a Perfetto-loadable
  timeline.  High detail, one run at a time, meant for eyeballs and
  ``python -m repro.trace diff``.
* *"How much, and is it getting slower across runs?"* → **metrics**
  (``PastisParams.metrics``/``run_registry``, :mod:`repro.obs`): the
  recorder reduced at the end of the run by
  :meth:`~repro.obs.MetricsHub.from_trace` to typed counters/gauges/
  histograms with label sets — ledger seconds per category, phase
  seconds, per-SUMMA-stage kernel seconds and measured compression
  factors, dispatch decisions — plus cache hit/miss counts and lane
  stats; persisted as registry manifests, scraped via Prometheus text
  exposition, and guarded by ``python -m repro.obs regress``.

``tests/test_trace.py`` and ``tests/test_obs.py`` assert bit-identity
per scheduler for both.
"""

from .accumulator import StreamingGraphAccumulator
from .cache import CachedBlock, StageCache, build_stage_cache
from .executor import ThreadedScheduler
from .process_executor import ProcessScheduler
from .schedulers import (
    OverlappedScheduler,
    ScheduleOutcome,
    Scheduler,
    SerialScheduler,
    make_scheduler,
)
from .stages import BlockRecord, BlockTask, StageContext
from .timeline import BlockTiming, StageTimeline

__all__ = [
    "BlockRecord",
    "BlockTask",
    "BlockTiming",
    "CachedBlock",
    "OverlappedScheduler",
    "ProcessScheduler",
    "ScheduleOutcome",
    "Scheduler",
    "SerialScheduler",
    "StageCache",
    "StageContext",
    "StageTimeline",
    "build_stage_cache",
    "StreamingGraphAccumulator",
    "ThreadedScheduler",
    "make_scheduler",
]
