"""Streaming accumulation of the similarity graph.

The paper's "incremental similarity search" promises that a block's overlap
elements can be discarded as soon as they are aligned; what must survive to
the end of the run is only the (much smaller) stream of similar pairs.  The
accumulator makes that life cycle explicit and auditable: every computed
block is registered as *live*, its edges are consumed the moment the
alignment stage produces them, and the block is released when the task's
``accumulate`` stage discards it.  Peak live bytes are tracked with
:class:`repro.metrics.memory.MemoryTracker`, so a run can report that
streaming held one block (serial schedule), two (depth-1 pre-blocking: the
current block plus the one being discovered) or ``k + 1`` (speculative
depth-``k`` pre-blocking) instead of the cumulative
``retained_block_bytes`` a keep-everything run would have paid.

The accumulator is also the engine's **memory governor**: with
``max_live_blocks`` set (the schedulers' block loop sets it to
``depth + 1``), :meth:`admit_block` blocks the calling worker until a slot
frees, so a deep speculative schedule can never hold more than ``k + 1``
blocks no matter how far the discover lane runs ahead of alignment.
Admission, consumption and release are thread-safe — the threaded
scheduler's worker admits and registers blocks while the main thread
consumes edges and discards them — and the measured peak is reported via
:attr:`peak_live_blocks`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ...metrics.memory import MemoryTracker
from ..align_phase import EDGE_DTYPE
from ..similarity_graph import SimilarityGraph

#: Memory-tracker component for block outputs currently held in memory.
LIVE_BLOCKS = "live_blocks"
#: Memory-tracker component for the growing similar-pair edge buffer.
EDGE_BUFFER = "edge_buffer"


@dataclass
class StreamingGraphAccumulator:
    """Consumes per-block edge streams and assembles the similarity graph.

    Attributes
    ----------
    n_vertices:
        Number of sequences (graph vertices).
    max_live_blocks:
        Admission bound: at most this many blocks may be live (admitted and
        not yet discarded) at once; :meth:`admit_block` blocks until a slot
        frees.  ``None`` (the default) disables admission control; the
        schedulers' block loop sets ``depth + 1`` when it is unset.
    memory:
        Tracker recording current/peak bytes of the ``live_blocks`` and
        ``edge_buffer`` components.
    retained_block_bytes:
        Sum of every consumed block's bytes — what peak memory would have
        been had all block outputs been retained instead of streamed.
    edges_streamed:
        Total edges consumed (before the final canonicalization).
    peak_live_blocks:
        Measured peak number of simultaneously live blocks (1 serial, 2
        depth-1 overlapped, at most ``depth + 1`` under the threaded
        executor).
    """

    n_vertices: int
    max_live_blocks: int | None = None
    memory: MemoryTracker = field(default_factory=MemoryTracker)
    retained_block_bytes: int = 0
    edges_streamed: int = 0
    peak_live_blocks: int = 0
    _edge_parts: list[np.ndarray] = field(default_factory=list, repr=False)
    _live: int = field(default=0, repr=False)
    _pending_admissions: int = field(default=0, repr=False)
    _aborted: bool = field(default=False, repr=False)
    _cond: threading.Condition = field(default_factory=threading.Condition, repr=False)

    # ------------------------------------------------------------------ admission
    def admit_block(self) -> None:
        """Reserve a live-block slot *before* computing a block.

        Blocks the caller until fewer than ``max_live_blocks`` blocks are
        live, then counts the reservation as live — this is what bounds the
        threaded executor's speculation to ``depth + 1`` blocks.  A
        subsequent :meth:`block_computed` consumes the reservation instead
        of admitting again.  Note: wakeup order among *concurrent* waiters
        is not FIFO (plain condition-variable semantics); oldest-block-first
        admission holds because every lane admits from one thread in block
        order (the threaded executor's single worker, the process
        executor's parent).
        """
        with self._cond:
            self._admit_locked()
            self._pending_admissions += 1

    def abort_admission(self) -> None:
        """Wake all admission waiters with an error (executor teardown)."""
        with self._cond:
            self._aborted = True
            self._cond.notify_all()

    def _admit_locked(self, blocking: bool = True) -> None:
        while (
            blocking
            and self.max_live_blocks is not None
            and self._live >= self.max_live_blocks
            and not self._aborted
        ):
            self._cond.wait()
        if self._aborted:
            raise RuntimeError("accumulator admission aborted (run torn down)")
        if self.max_live_blocks is not None and self._live >= self.max_live_blocks:
            # non-blocking path: the caller is the only thread there is, so
            # waiting for an eviction it would itself have to perform is a
            # guaranteed deadlock — fail loudly instead
            raise RuntimeError(
                f"live-block bound exceeded: {self._live} blocks live with "
                f"max_live_blocks={self.max_live_blocks}; single-threaded "
                "schedulers must discard before computing the next block (or "
                "reserve concurrently via admit_block)"
            )
        self._live += 1
        self.peak_live_blocks = max(self.peak_live_blocks, self._live)

    # ------------------------------------------------------------------ block life cycle
    def block_computed(self, nbytes: int) -> None:
        """Register a freshly discovered block's output as live.

        Blocks replayed from the stage cache go through the exact same
        admission/registration/discard life cycle as computed ones (with the
        stored ``block_bytes``), so live-block bounds, peak accounting and —
        under the threaded executor — the admission gate behave identically
        on warm and cold runs.
        """
        with self._cond:
            if self._pending_admissions:
                self._pending_admissions -= 1
            else:
                # caller did not pre-admit (the inline lanes of the serial
                # and overlapped schedulers): admit on registration, without
                # blocking — the registering thread may be the only one able
                # to evict
                self._admit_locked(blocking=False)
            self.memory.allocate(LIVE_BLOCKS, int(nbytes))
            self.retained_block_bytes += int(nbytes)

    def consume(self, edges: np.ndarray) -> None:
        """Stream one block's similar-pair edges into the output buffer."""
        with self._cond:
            if edges.size:
                self._edge_parts.append(edges)
                self.memory.allocate(EDGE_BUFFER, int(edges.nbytes))
            self.edges_streamed += int(edges.size)

    def block_discarded(self, nbytes: int) -> None:
        """Release a block whose edges have been consumed."""
        with self._cond:
            self.memory.release(LIVE_BLOCKS, int(nbytes))
            self._live = max(0, self._live - 1)
            self._cond.notify_all()

    # ------------------------------------------------------------------ results
    @property
    def live_blocks(self) -> int:
        """Number of currently live (admitted, not yet discarded) blocks."""
        return self._live

    @property
    def peak_live_block_bytes(self) -> int:
        """Peak bytes of simultaneously live block outputs."""
        return self.memory.peak(LIVE_BLOCKS)

    @property
    def live_block_bytes(self) -> int:
        """Bytes of block outputs currently live (0 after a finished run)."""
        return self.memory.current(LIVE_BLOCKS)

    def finalize(self) -> SimilarityGraph:
        """Canonicalize the streamed edges into the similarity graph."""
        edges = (
            np.concatenate(self._edge_parts)
            if self._edge_parts
            else np.zeros(0, dtype=EDGE_DTYPE)
        )
        return SimilarityGraph.from_edges(edges, self.n_vertices)
