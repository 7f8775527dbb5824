"""Outside-in per-layer trace of the benchmark's operations.

The program is not changed.  :class:`LayerTrace` replaces each layer's
public entry points, at the attribute their callers look up, with timing
wrappers; every call becomes one in-memory :class:`Span` carrying its
thread id, the span that caused it, start/end times and counts computed
from the call's arguments and result.  The originals are restored when the
trace is closed, and :func:`layer_metrics` reduces the spans to the
per-layer metrics declared in ``BENCHMARK.json``.

A layer's time is the *self* time of its spans: duration minus the part
covered by child spans on the same thread.  Spans on a worker thread (the
threaded executor's discover lane) are caused by the engine span running on
the main thread, but overlap it in time, so they never subtract from it.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import import_module

from repro.mpi.collectives import payload_nbytes

#: spans of these layers count as SUMMA broadcast/merge only when SUMMA
#: calls them directly; anywhere else they belong to their caller's layer
SUMMA_SCOPED = ("summa.bcast", "summa.merge")
#: counts the benchmark computes from call arguments, not read from the program
COMPUTED = ("align.padded_cells", "sparse.csr_indptr_bytes", "summa.bcast_bytes")
#: the root layer: glue inside ``PastisPipeline.run`` no other span covers
RUN = "run"
SCHEDULER = "engine.scheduler"


@dataclass
class Span:
    name: str
    layer: str
    tid: int
    parent: int  # index of the causing span, -1 for none
    start: float = 0.0
    end: float = 0.0
    cpu: float = 0.0
    counts: dict = field(default_factory=dict)


def _set(key, get):
    def count(counts, args, kwargs, out):
        counts[key] = get(args, out)

    return count


def _kmer_nnz(info_at):
    return _set("nnz", lambda args, out: out[info_at].nnz)


def _bcast(counts, args, kwargs, out):
    # computed: the payload the root sends, sized like the ledger sizes it
    counts["bytes"] = payload_nbytes(args[1])


def _multiply(counts, args, kwargs, out):
    counts["flops"] = out[1].flops if isinstance(out, tuple) else 0


def _from_coo(counts, args, kwargs, out):
    # computed from the operand shape: an int64 indptr of n_rows + 1
    counts["indptr_bytes"] = (args[1].shape[0] + 1) * 8


def _prune(counts, args, kwargs, out):
    task = args[0]
    if task.block is not None:  # a cache replay prunes nothing
        counts["candidates"] = sum(piece.nnz for piece in task.block.result.per_rank)
    counts["pairs"] = sum(piece.nnz for piece in out)


def _batch(counts, args, kwargs, out):
    a_list, b_list = args[0], args[1]
    counts["pairs"] = len(a_list)
    counts["real_cells"] = sum(len(a) * len(b) for a, b in zip(a_list, b_list))
    if a_list:
        # computed: the kernel pads the batch to max len_a x max len_b
        counts["padded_cells"] = (
            len(a_list) * max(map(len, a_list)) * max(map(len, b_list))
        )


def _finalize(counts, args, kwargs, out):
    counts["peak_live_block_bytes"] = args[0].peak_live_block_bytes


def _prepare(counts, args, kwargs, out):
    counts["queries"] = out.n_members + out.n_novel
    counts["novel"] = out.n_novel


#: (module, class or None, attribute, layer, counter) — every wrapped entry
#: point.  Functions are wrapped in the module their caller resolves them
#: from; methods on their class.
WRAPS = [
    ("repro.core.pipeline", "PastisPipeline", "run", RUN, None),
    ("repro.core.pipeline", None, "build_distributed_kmer_matrix", "kmer_matrix", _kmer_nnz(2)),
    ("repro.serve.query", None, "build_query_kmer_coo", "kmer_matrix", _kmer_nnz(1)),
    ("repro.core.pipeline", None, "distribute_sequences", "pipeline.io", None),
    ("repro.mpi.io", "ParallelIoModel", "collective_read", "pipeline.io", None),
    ("repro.mpi.io", "ParallelIoModel", "collective_write", "pipeline.io", None),
    ("repro.core.engine.schedulers", "SerialScheduler", "run", SCHEDULER, None),
    ("repro.core.engine.executor", "ThreadedScheduler", "run", SCHEDULER, None),
    ("repro.core.engine.stages", "BlockTask", "discover", "engine.discover", None),
    ("repro.core.engine.stages", "BlockTask", "prune", "prune", _prune),
    ("repro.core.engine.stages", "BlockTask", "align", "align", None),
    ("repro.core.engine.stages", "BlockTask", "accumulate", "accumulate", None),
    ("repro.distsparse.blocked_summa", "BlockedSpGemm", "compute_block", "summa", None),
    ("repro.mpi.collectives", "CollectiveEngine", "bcast", "summa.bcast", _bcast),
    ("repro.sparse.csr", "CsrMatrix", "from_coo", "sparse", _from_coo),
    ("repro.sparse.coo", "CooMatrix", "deduplicate", "summa.merge", None),
    ("repro.align.adept", "AdeptDriver", "align_pairs", "align", None),
    ("repro.align.adept", None, "batch_smith_waterman", "align.kernel", _batch),
    ("repro.core.engine.accumulator", "StreamingGraphAccumulator", "consume", "accumulate",
     _set("edges", lambda args, out: int(args[1].size))),
    ("repro.core.engine.accumulator", "StreamingGraphAccumulator", "finalize", "accumulate",
     _finalize),
    ("repro.core.pipeline", None, "cluster_similarity_graph", "cluster",
     _set("iterations", lambda args, out: out.n_iterations)),
    ("repro.serve.query", None, "open_index_for", "serve.index_open", None),
    ("repro.serve.query", None, "prepare_query_run", "serve.prepare", _prepare),
    ("repro.serve.index", "KmerIndex", "stripe", "serve.stripe",
     _set("bytes", lambda args, out: int(out.memory_bytes_per_rank().sum()))),
    ("repro.serve.batcher", "QueryBatcher", "drain", "serve.drain", None),
]


class LayerTrace:
    """Wraps every entry point in :data:`WRAPS` while open (a context manager)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.main_tid = threading.get_ident()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self.main_tid:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _cause(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        # a worker thread's first span: caused by the engine span the main
        # thread is inside (the scheduler that submitted the job)
        for index in reversed(list(self._main_stack)):
            if self.spans[index].layer == SCHEDULER:
                return index
        return -1

    def timed(self, fn, layer: str, count=None):
        cpu = layer == SCHEDULER

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(fn.__qualname__, layer, threading.get_ident(), self._cause(stack))
            with self._lock:
                stack.append(len(self.spans))
                self.spans.append(span)
            if cpu:
                span.cpu = -time.process_time()
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if cpu:
                    span.cpu += time.process_time()
                stack.pop()
            if count is not None:
                count(span.counts, args, kwargs, out)
            return out

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "LayerTrace":
        for module_name, class_name, attr, layer, count in WRAPS:
            module = import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self.timed(raw.__func__, layer, count))
            else:
                new = self.timed(raw, layer, count)
            self._patch(owner, attr, new)
        # SUMMA resolves its local-multiply kernel per call: wrap what it gets
        summa = import_module("repro.distsparse.summa")
        resolve = summa.resolve_kernel
        self._patch(
            summa,
            "resolve_kernel",
            lambda kernel: self.timed(resolve(kernel), "summa.multiply", _multiply),
        )
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def _intersection(a, b) -> float:
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        total += max(0.0, min(a[i][1], b[j][1]) - max(a[i][0], b[j][0]))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def layer_metrics(trace: LayerTrace, ops: int, op_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-operation layer metrics of ``ops`` traced operations.

    ``op_wall_s`` / ``untraced_wall_s``: mean wall seconds of one operation
    traced / untraced (their difference is the tracing overhead).
    """
    spans = trace.spans
    covered = [0.0] * len(spans)
    effective: list[str] = []
    for span in spans:
        parent = span.parent
        if parent >= 0 and spans[parent].tid == span.tid:
            covered[parent] += span.end - span.start
        layer = span.layer
        if layer in SUMMA_SCOPED and parent >= 0 and effective[parent] != "summa":
            layer = effective[parent]
        effective.append(layer)
    self_s = [span.end - span.start - c for span, c in zip(spans, covered)]

    sub_s: dict[str, float] = defaultdict(float)  # self seconds per sub-layer
    top_s: dict[str, float] = defaultdict(float)  # self seconds per layer
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    main_attributed = 0.0
    for span, layer, seconds in zip(spans, effective, self_s):
        top = layer.split(".")[0]
        sub_s[layer] += seconds
        top_s[top] += seconds
        calls[layer] += 1
        for key, value in span.counts.items():
            if key == "peak_live_block_bytes":
                counts[f"{layer}.{key}"] = max(counts[f"{layer}.{key}"], value)
            else:
                counts[f"{layer}.{key}"] += value
        if span.tid == trace.main_tid and layer != RUN:
            main_attributed += seconds

    schedulers = [s for s in spans if s.layer == SCHEDULER]
    discover_lane = _union(
        [(s.start, s.end) for s in spans if s.layer == "engine.discover" and s.tid != trace.main_tid]
    )
    align_lane = _union(
        [(s.start, s.end) for s, layer in zip(spans, effective)
         if layer == "align" and s.name == "BlockTask.align"]
    )
    runs_in_drains = sum(
        1 for s in spans if s.layer == RUN and s.parent >= 0 and spans[s.parent].layer == "serve.drain"
    )
    kernel_s = sub_s["align.kernel"]
    align_pairs = counts["align.kernel.pairs"]
    real_cells = counts["align.kernel.real_cells"]
    padded_cells = counts["align.kernel.padded_cells"]
    candidates = counts["prune.candidates"]
    queries = counts["serve.prepare.queries"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    per_op = {
        "kmer_matrix.s": top_s["kmer_matrix"],
        "kmer_matrix.nnz": counts["kmer_matrix.nnz"],
        "summa.s": top_s["summa"],
        "summa.blocks": calls["summa"],
        "summa.bcast_s": sub_s["summa.bcast"],
        "summa.bcast_bytes": counts["summa.bcast.bytes"],
        "summa.multiply_s": sub_s["summa.multiply"],
        "summa.multiply_calls": calls["summa.multiply"],
        "summa.flops": counts["summa.multiply.flops"],
        "summa.merge_s": sub_s["summa.merge"],
        "sparse.csr_build_s": top_s["sparse"],
        "sparse.csr_indptr_bytes": counts["sparse.indptr_bytes"],
        "prune.s": top_s["prune"],
        "prune.candidates": candidates,
        "prune.pairs": counts["prune.pairs"],
        "align.s": top_s["align"],
        "align.pairs": align_pairs,
        "align.batches": calls["align.kernel"],
        "align.real_cells": real_cells,
        "align.padded_cells": padded_cells,
        "accumulate.s": top_s["accumulate"],
        "accumulate.edges": counts["accumulate.edges"],
        "engine.stage_graph_s": sum(s.end - s.start for s in schedulers),
        "engine.discover_wait_s": sub_s[SCHEDULER],
        "engine.overlap_s": _intersection(discover_lane, align_lane),
        "engine.cpu_s": sum(s.cpu for s in schedulers),
        "cluster.s": top_s["cluster"],
        "cluster.iterations": counts["cluster.iterations"],
        "serve.index_open_s": sub_s["serve.index_open"],
        "serve.prepare_s": sub_s["serve.prepare"],
        "serve.stripe_load_s": sub_s["serve.stripe"],
        "serve.stripe_bytes": counts["serve.stripe.bytes"],
        "serve.batches": runs_in_drains,
        "pipeline.io_s": top_s["pipeline"],
        "unattributed_s": ops * op_wall_s - main_attributed,
    }
    out = {name: value / ops for name, value in per_op.items()}
    out.update(
        {
            "accumulate.peak_live_block_bytes": counts["accumulate.peak_live_block_bytes"],
            "prune.keep_ratio": ratio(counts["prune.pairs"], candidates),
            "align.padding_ratio": ratio(padded_cells, real_cells),
            "align.real_mcups": ratio(real_cells, kernel_s) / 1e6,
            "align.padded_mcups": ratio(padded_cells, kernel_s) / 1e6,
            "align.edge_yield": ratio(counts["accumulate.edges"], align_pairs),
            "serve.batch_queries": ratio(queries, runs_in_drains),
            "serve.novel_share": ratio(counts["serve.prepare.novel"], queries),
            "trace_overhead_s": op_wall_s - untraced_wall_s,
        }
    )
    return out
