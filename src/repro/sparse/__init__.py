"""Local semiring sparse-matrix substrate (the CombBLAS-like layer).

PASTIS stores every piece of search state in sparse matrices whose elements
are *custom data types* (seed positions, common-k-mer counts, alignment
scores) and manipulates them with *semirings* — user-defined multiply/add
operators plugged into SpGEMM.  This subpackage provides that substrate for a
single process; :mod:`repro.distsparse` layers the 2D distribution and SUMMA
algorithms on top.

Contents
--------
* :mod:`repro.sparse.semiring` — the semiring abstraction and the concrete
  semirings used by the pipeline (arithmetic, boolean/count, min-plus, and
  the overlap semiring carrying seed positions).
* :mod:`repro.sparse.coo` / :mod:`repro.sparse.csr` /
  :mod:`repro.sparse.dcsc` — storage formats (COO triplets, CSR, and the
  doubly-compressed sparse column format CombBLAS uses for hypersparse
  submatrices).
* :mod:`repro.sparse.spgemm` — sort/expand/reduce semiring SpGEMM with
  flop (compression-factor) accounting.
* :mod:`repro.sparse.gustavson` — row-wise Gustavson SpGEMM whose peak
  intermediate memory is bounded by a per-row-group flop budget instead of
  the total flop count.
* :mod:`repro.sparse.kernels` — the SpGEMM **kernel registry**.  Backends
  are selected by name (``"expand"`` or ``"gustavson"``) via
  :func:`~repro.sparse.kernels.get_kernel` /
  :func:`~repro.sparse.kernels.resolve_kernel`, and new ones can be added
  with :func:`~repro.sparse.kernels.register_kernel`.
* :mod:`repro.sparse.spops` — transpose, triangular extraction, parity
  pruning, elementwise filtering, conversions.

Choosing a backend
------------------
All kernels return bit-identical outputs and flop/nnz statistics (the
randomized harness in ``tests/test_spgemm_equivalence.py`` asserts this), so
the choice is purely about resources.  ``"expand"`` is the default
everywhere, the pipeline's ``A·Aᵀ`` overlap multiply included
(``PastisParams(spgemm_backend=...)``, routed through
:class:`repro.distsparse.blocked_summa.BlockedSpGemm` into every SUMMA
stage).  That multiply's inner dimension is the ``|alphabet|^k`` k-mer space,
which is hypersparse; ``"expand"`` never allocates anything sized by it,
while ``"gustavson"`` builds a CSR ``indptr`` of ``|alphabet|^k + 1``
entries per local multiply (512 MB at k = 6).  On a 2-CPU host the 20
local multiplies of one ``perfbench`` ``avsa_k6`` search (k = 6) take
0.08 s with ``"expand"`` and 5.3–5.9 s with ``"gustavson"``, with
identical output.  ``"gustavson"`` stays the backend to pick with a
``batch_flops`` budget, the only way to bound partial-product memory at
very high compression factors; ``benchmarks/bench_kernels.py`` reports a
head-to-head.
"""

from .semiring import (
    Semiring,
    ArithmeticSemiring,
    CountSemiring,
    MinPlusSemiring,
    MaxSemiring,
    OverlapSemiring,
    OVERLAP_DTYPE,
)
from .coo import CooMatrix
from .csr import CsrMatrix
from .dcsc import DcscMatrix
from .spgemm import spgemm, SpGemmStats
from .gustavson import spgemm_gustavson
from .kernels import (
    DEFAULT_KERNEL,
    available_kernels,
    get_kernel,
    kernel_supports_batch_flops,
    register_kernel,
    resolve_kernel,
)
from .spops import (
    transpose,
    triu,
    tril,
    prune_by_parity,
    filter_values,
    to_scipy_csr,
    from_scipy,
    add_coo,
)

__all__ = [
    "Semiring",
    "ArithmeticSemiring",
    "CountSemiring",
    "MinPlusSemiring",
    "MaxSemiring",
    "OverlapSemiring",
    "OVERLAP_DTYPE",
    "CooMatrix",
    "CsrMatrix",
    "DcscMatrix",
    "spgemm",
    "spgemm_gustavson",
    "SpGemmStats",
    "DEFAULT_KERNEL",
    "available_kernels",
    "get_kernel",
    "kernel_supports_batch_flops",
    "register_kernel",
    "resolve_kernel",
    "transpose",
    "triu",
    "tril",
    "prune_by_parity",
    "filter_values",
    "to_scipy_csr",
    "from_scipy",
    "add_coo",
]
