"""SpGEMM kernel registry: select a backend by name.

The package ships these interchangeable SpGEMM kernels:

``"expand"``
    The vectorized sort–expand–reduce kernel
    (:func:`repro.sparse.spgemm.spgemm`) and the registry default
    (:data:`DEFAULT_KERNEL`) for every consumer, the pipeline's ``A·Aᵀ``
    overlap multiply included.  It sorts the operands' nonzeros by inner
    index and never allocates anything sized by the inner dimension, which
    for the k-mer matrix is ``|alphabet|^k`` (20^6 = 64 M at the paper's
    k = 6) and hypersparse.  Intermediate memory is proportional to the
    flop count.

``"gustavson"``
    The row-wise Gustavson kernel
    (:func:`repro.sparse.gustavson.spgemm_gustavson`).  Forms the output in
    row groups under a ``batch_flops`` budget, the only backend that can
    bound its partial-product memory that way.  It converts a COO ``B``
    operand to CSR, whose ``indptr`` has one entry per inner index: on the
    k-mer operand that is 20^k + 1 int64s (512 MB at k = 6) per local
    multiply, which costs more time and memory than the expand kernel's
    whole multiply (``benchmarks/bench_kernels.py --smoke`` measures both
    on a pipeline-shaped operand).

``"gustavson-numba"``
    The compiled scalar SPA Gustavson kernel
    (:func:`repro.sparse.gustavson_numba.spgemm_gustavson_numba`).  Only
    registered when numba is importable (install the ``[fast]`` extra);
    supports the ``plus_times`` and ``overlap`` semirings and is
    bit-identical to ``"gustavson"`` — same flop-bounded row grouping, same
    ascending-inner-index enumeration, strict left-to-right accumulation —
    while replacing the per-group sort with an ``O(flops)`` dense sparse
    accumulator.  The raw-speed backend for process-pool discover lanes.

``"scipy"``
    :func:`spgemm_scipy`, wrapping ``scipy.sparse``'s C++ CSR matmul.  Only
    registered when SciPy is importable, and only supports the plain
    arithmetic (+, ×) semiring — but there it is the fastest backend by a
    wide margin, which is why ``repro.graph``'s Markov-clustering expansion
    prefers it.  Bit-identical to the other backends because
    :class:`~repro.sparse.semiring.ArithmeticSemiring` reduces with strict
    left-to-right association, the same order SciPy's scalar accumulator
    uses.  Operands with duplicate coordinates are pre-merged with ``+``
    (SciPy's own convention); canonical (duplicate-free) operands — all the
    registry's consumers produce them — are required for the bit-identity
    guarantee.

All produce bit-identical outputs and :class:`~repro.sparse.spgemm.SpGemmStats`
flop/nnz accounting (asserted by ``tests/test_spgemm_equivalence.py``), so
every consumer — :func:`repro.distsparse.summa.summa`,
:class:`repro.distsparse.blocked_summa.BlockedSpGemm`, the pipeline via
``PastisParams.spgemm_backend`` — selects one purely on performance grounds.

A kernel is any callable with the signature
``kernel(a, b, semiring=None, return_stats=False)`` accepting
:class:`~repro.sparse.coo.CooMatrix` operands and returning a
:class:`~repro.sparse.coo.CooMatrix` (plus stats when requested) — COO is
the interchange format every backend must accept; extra operand formats
(e.g. the Gustavson kernel's CSR fast path) are backend-specific extras.
Kernels that form the output in flop-bounded batches may additionally
accept a ``batch_flops`` keyword (probe with
:func:`kernel_supports_batch_flops`).  Register additional backends with
:func:`register_kernel`.
"""

from __future__ import annotations

import inspect
from typing import Callable

import numpy as np

from .coo import CooMatrix
from .gustavson import spgemm_gustavson
from .spgemm import SpGemmStats, spgemm

try:  # the scipy backend is registered only when scipy is importable
    import scipy.sparse as _scipy_sparse
except ImportError:  # pragma: no cover - exercised on scipy-free installs
    _scipy_sparse = None

try:  # the compiled backend is registered only when numba is importable
    from .gustavson_numba import spgemm_gustavson_numba
except ImportError:  # pragma: no cover - exercised on numba-free installs
    spgemm_gustavson_numba = None

#: Signature shared by all SpGEMM backends.
SpGemmKernel = Callable[..., object]

#: Name of the backend used when none is requested: generic consumers
#: (``resolve_kernel(None)``) and ``PastisParams.spgemm_backend`` alike.
DEFAULT_KERNEL = "expand"

_KERNELS: dict[str, SpGemmKernel] = {}


def register_kernel(name: str, kernel: SpGemmKernel | None = None):
    """Register ``kernel`` under ``name`` (usable as a decorator).

    Raises ``ValueError`` if the name is already taken — backends are
    global, and silent replacement would change results of unrelated runs.
    """

    def _register(fn: SpGemmKernel) -> SpGemmKernel:
        if name in _KERNELS:
            raise ValueError(f"SpGEMM kernel {name!r} is already registered")
        _KERNELS[name] = fn
        return fn

    return _register(kernel) if kernel is not None else _register


def available_kernels() -> tuple[str, ...]:
    """Names of all registered backends, sorted."""
    return tuple(sorted(_KERNELS))


def get_kernel(name: str) -> SpGemmKernel:
    """Look up a backend by name, with a helpful error for typos."""
    try:
        return _KERNELS[name]
    except KeyError:
        raise ValueError(
            f"unknown SpGEMM kernel {name!r}; available: {', '.join(available_kernels())}"
        ) from None


def resolve_kernel(kernel: str | SpGemmKernel | None) -> SpGemmKernel:
    """Normalize a backend spec (name, callable, or ``None``) to a callable."""
    if kernel is None:
        return _KERNELS[DEFAULT_KERNEL]
    if callable(kernel):
        return kernel
    return get_kernel(kernel)


def kernel_supports_batch_flops(kernel: SpGemmKernel) -> bool:
    """Whether a backend accepts the ``batch_flops`` flop-budget keyword.

    Only an explicitly named ``batch_flops`` parameter counts — a bare
    ``**kwargs`` would swallow the budget without honoring it, silently
    defeating the memory bound the caller asked for.
    """
    try:
        parameters = inspect.signature(kernel).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False
    return "batch_flops" in parameters


def kernel_supports_semiring(kernel: SpGemmKernel, semiring) -> bool:
    """Whether a backend supports ``semiring`` (or any semiring for ``None``).

    Backends are generic unless they declare a ``supported_semirings`` tuple
    of semiring names (the :func:`spgemm_scipy` wrapper declares
    ``("plus_times",)``).  Generic consumers that sweep every registered
    backend — the head-to-head benchmark, the cross-kernel test harness —
    filter with this instead of catching the backend's rejection error.
    """
    supported = getattr(kernel, "supported_semirings", None)
    if supported is None:
        return True
    name = "plus_times" if semiring is None else getattr(semiring, "name", None)
    return name in supported


# ------------------------------------------------------------------ scipy backend
def _to_scipy_csr(matrix):
    """Convert a COO/CSR operand to a canonical float64 ``scipy.sparse.csr_array``."""
    if hasattr(matrix, "indptr"):  # our CsrMatrix: canonical by construction
        out = _scipy_sparse.csr_array(
            (matrix.values.astype(np.float64), matrix.indices, matrix.indptr),
            shape=matrix.shape,
        )
    else:
        out = _scipy_sparse.coo_array(
            (np.asarray(matrix.values, dtype=np.float64), (matrix.rows, matrix.cols)),
            shape=matrix.shape,
        ).tocsr()
    out.sum_duplicates()
    out.sort_indices()
    return out


def spgemm_scipy(a, b, semiring=None, return_stats: bool = False):
    """SpGEMM through SciPy's C++ CSR matmul — plain arithmetic semiring only.

    The fast path for conventional (+, ×) products such as the Markov
    clustering expansion in :mod:`repro.graph`.  Output entries are sorted
    row-major with one entry per coordinate and *bit-identical* to the other
    backends: SciPy's scalar accumulator adds partial products for an output
    entry in ascending inner-index order, exactly the order (and, since
    :class:`~repro.sparse.semiring.ArithmeticSemiring` reduces with strict
    left-to-right association, exactly the rounding) of the registry's other
    kernels.  Operands holding duplicate coordinates are pre-merged with
    ``+`` during CSR conversion — for duplicate-heavy inputs use a kernel
    that keeps duplicates as separate partial products.

    ``SpGemmStats.flops`` is the exact flop count read off the (merged)
    sparsity patterns; ``intermediate_bytes`` is the triplet footprint of
    the result, since the C++ kernel materializes no expanded intermediate.
    """
    if _scipy_sparse is None:  # pragma: no cover - registration is gated
        raise RuntimeError("the 'scipy' SpGEMM backend requires scipy")
    if semiring is not None and getattr(semiring, "name", None) != "plus_times":
        raise ValueError(
            "the 'scipy' SpGEMM backend supports only the plain arithmetic "
            f"semiring, got {semiring!r}; use 'expand' or 'gustavson' for "
            "overloaded semirings"
        )
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions do not match: {a.shape} x {b.shape}")
    out_shape = (a.shape[0], b.shape[1])

    a_s = _to_scipy_csr(a)
    b_s = _to_scipy_csr(b)
    b_row_nnz = np.diff(b_s.indptr)
    flops = int(b_row_nnz[a_s.indices].sum()) if a_s.nnz else 0
    if flops == 0:
        result = CooMatrix.empty(out_shape, dtype=np.float64)
        stats = SpGemmStats(flops=0, output_nnz=0, intermediate_bytes=0, compression_factor=1.0)
        return (result, stats) if return_stats else result

    c = (a_s @ b_s).tocsr()
    c.sum_duplicates()
    c.sort_indices()
    c_coo = c.tocoo()
    result = CooMatrix(
        out_shape,
        c_coo.row.astype(np.int64),
        c_coo.col.astype(np.int64),
        np.ascontiguousarray(c_coo.data, dtype=np.float64),
        check=False,
    )
    stats = SpGemmStats(
        flops=flops,
        output_nnz=result.nnz,
        intermediate_bytes=result.memory_bytes(),
        compression_factor=flops / result.nnz if result.nnz else 1.0,
        row_groups=1,
    )
    return (result, stats) if return_stats else result


#: Semiring capability declaration consumed by :func:`kernel_supports_semiring`.
spgemm_scipy.supported_semirings = ("plus_times",)


register_kernel("expand", spgemm)
register_kernel("gustavson", spgemm_gustavson)
if _scipy_sparse is not None:
    register_kernel("scipy", spgemm_scipy)
if spgemm_gustavson_numba is not None:
    register_kernel("gustavson-numba", spgemm_gustavson_numba)
