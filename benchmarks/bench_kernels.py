"""Kernel microbenchmarks: the calibration anchors of the hardware model.

These are not paper figures; they measure the reproduction's own kernels —
the batched Smith-Waterman wavefront (CUPS of the Python "device") and the
semiring SpGEMM (partial products per second) — so the gap between the
measured Python rates and the modelled Summit rates used by the pipeline's
"modeled" clock is explicit.  The SpGEMM head-to-head also carries the
evidence for the registry's default kernel.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from repro.align.batch import batch_smith_waterman
from repro.sequences.synthetic import synthetic_dataset
from repro.sparse.coo import CooMatrix
from repro.sparse.kernels import (
    DEFAULT_KERNEL,
    available_kernels,
    get_kernel,
    kernel_supports_semiring,
)
from repro.sparse.semiring import CountSemiring, OverlapSemiring
from repro.sparse.spgemm import spgemm

from _results import save_results


def test_batch_smith_waterman_throughput(benchmark):
    seqs = synthetic_dataset(n_sequences=64, seed=33)
    a_list = [seqs.codes(i) for i in range(0, 32)]
    b_list = [seqs.codes(i) for i in range(32, 64)]

    result = benchmark(batch_smith_waterman, a_list, b_list)
    cells = int(result["cells"].sum())
    mcups = cells / benchmark.stats["mean"] / 1e6
    benchmark.extra_info["cells"] = cells
    benchmark.extra_info["measured_mcups"] = mcups
    save_results("kernel_batch_sw", {"cells": cells, "measured_mcups": mcups})
    assert cells > 0
    assert np.all(result["score"] >= 0)


def test_overlap_spgemm_throughput(benchmark):
    a, at = _overlap_operand(n=400, k=4000, nnz=12000, seed=7)

    def multiply():
        return spgemm(a, at, OverlapSemiring(), return_stats=True)

    _, stats = benchmark(multiply)
    products_per_second = stats.flops / benchmark.stats["mean"]
    benchmark.extra_info["flops"] = stats.flops
    benchmark.extra_info["compression_factor"] = stats.compression_factor
    benchmark.extra_info["products_per_second"] = products_per_second
    save_results(
        "kernel_spgemm",
        {
            "flops": stats.flops,
            "output_nnz": stats.output_nnz,
            "compression_factor": stats.compression_factor,
            "products_per_second": products_per_second,
        },
    )
    assert stats.flops > 0
    assert stats.compression_factor >= 1.0


def _overlap_operand(n, k, nnz, seed, distinct_kmers=None):
    """A k-mer-position-like matrix ``A`` and its transpose.

    Columns are drawn from ``distinct_kmers`` k-mers scattered over the
    ``k``-wide inner dimension (all ``k`` columns when ``None``), which is
    how the pipeline's operand looks: only a few thousand of the 20^6
    possible k-mers occur in a block of sequences.
    """
    rng = np.random.default_rng(seed)
    kmers = (
        np.arange(k) if distinct_kmers is None
        else rng.choice(k, size=distinct_kmers, replace=False)
    )
    a = CooMatrix(
        (n, k), rng.integers(0, n, nnz), kmers[rng.integers(0, kmers.size, nnz)],
        rng.integers(0, 90, nnz).astype(np.int32),
    ).deduplicate()
    return a, a.transpose()


#: Head-to-head cases (the pytest benchmark and the smoke share them).
#: ``high_cf`` has a high compression factor over a tiny inner dimension;
#: ``pipeline_shaped`` has the pipeline's ``A·Aᵀ`` inner dimension of
#: 20^6 k-mers (the paper's k = 6), the shape the default kernel is chosen on.
HEAD_TO_HEAD_CASES = {
    "high_cf": dict(n=300, k=40, nnz=4000, seed=5),
    "pipeline_shaped": dict(n=300, k=20**6, nnz=12000, seed=5, distinct_kmers=3000),
}


def _traced_peak(kernel, a, at, semiring) -> int:
    """``tracemalloc`` peak of one multiply: everything the kernel allocates,
    including operand conversions its ``intermediate_bytes`` does not count
    (the Gustavson kernel's CSR ``indptr`` over the inner dimension)."""
    tracemalloc.start()
    try:
        kernel(a, at, semiring, return_stats=True)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def spgemm_backend_head_to_head(case, repeats=3):
    """Run ``C = A·Aᵀ`` through every registered backend and compare.

    Returns per-backend timing, :class:`SpGemmStats` numbers and the
    ``tracemalloc`` peak (taken in a separate untimed call); asserts the
    outputs agree bit-for-bit, so the comparison is purely about resources.
    """
    a, at = _overlap_operand(**HEAD_TO_HEAD_CASES[case])
    semiring = OverlapSemiring()
    report = {}
    baseline = None
    for name in available_kernels():
        kernel = get_kernel(name)
        if not kernel_supports_semiring(kernel, semiring):
            continue  # e.g. the scipy backend, plain-arithmetic only
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            result, stats = kernel(a, at, semiring, return_stats=True)
            best = min(best, time.perf_counter() - t0)
        if baseline is None:
            baseline = result
        else:
            assert result == baseline, f"backend {name!r} disagrees with the others"
        report[name] = {
            "seconds": best,
            "flops": stats.flops,
            "output_nnz": stats.output_nnz,
            "compression_factor": stats.compression_factor,
            "intermediate_bytes": stats.intermediate_bytes,
            "peak_bytes": _traced_peak(kernel, a, at, semiring),
            "products_per_second": stats.flops / best if best else 0.0,
        }
    return report


def test_spgemm_backend_head_to_head(benchmark):
    """Every overlap-capable backend on both cases; times the default."""
    reports = {case: spgemm_backend_head_to_head(case) for case in HEAD_TO_HEAD_CASES}
    # also time the default under pytest-benchmark so the head-to-head is
    # collected by the documented `pytest benchmarks/ --benchmark-only` run
    a, at = _overlap_operand(**HEAD_TO_HEAD_CASES["pipeline_shaped"])
    benchmark(get_kernel(DEFAULT_KERNEL), a, at, OverlapSemiring(), return_stats=True)
    for case, report in reports.items():
        for name, row in report.items():
            for key in ("seconds", "intermediate_bytes", "peak_bytes"):
                benchmark.extra_info[f"{case}_{name}_{key}"] = row[key]
    save_results("kernel_spgemm_backends", reports)
    _check(reports)


def _check(reports) -> None:
    high_cf = reports["high_cf"]
    expand, gustavson = high_cf["expand"], high_cf["gustavson"]
    # identical work and output accounting...
    assert gustavson["flops"] == expand["flops"] > 0
    assert gustavson["output_nnz"] == expand["output_nnz"] > 0
    assert expand["compression_factor"] > 2.0
    # ...and row-group batching bounds the partial products Gustavson holds
    assert gustavson["intermediate_bytes"] < expand["intermediate_bytes"]
    # on the pipeline's shape the default allocates no more than Gustavson,
    # whose CSR conversion of Aᵀ builds a pointer array over all 20^6 k-mers
    shaped = reports["pipeline_shaped"]
    assert shaped[DEFAULT_KERNEL]["flops"] == shaped["gustavson"]["flops"] > 0
    assert shaped[DEFAULT_KERNEL]["peak_bytes"] <= shaped["gustavson"]["peak_bytes"]


def test_count_spgemm_scales_with_nnz(benchmark):
    rng = np.random.default_rng(11)
    n, k, nnz = 600, 8000, 30000
    a = CooMatrix(
        (n, k), rng.integers(0, n, nnz), rng.integers(0, k, nnz), np.ones(nnz, dtype=np.int64)
    ).deduplicate()
    at = a.transpose()
    result = benchmark(spgemm, a, at, CountSemiring())
    assert result.nnz > 0


def _smoke() -> None:
    """Standalone head-to-head (no pytest-benchmark needed) — used by CI.

    Runs the same cases and checks as the pytest head-to-head, so bit
    identity and the default kernel's memory footing are asserted on every
    CI run, not only when the benchmark suite is invoked by hand.
    """
    reports = {case: spgemm_backend_head_to_head(case, repeats=1) for case in HEAD_TO_HEAD_CASES}
    header = (
        f"{'case':<16} {'backend':<16} {'seconds':>9} {'flops':>8} {'nnz':>8} "
        f"{'cf':>6} {'intermediate':>13} {'peak':>13}"
    )
    print(header)
    print("-" * len(header))
    for case, report in reports.items():
        for name, row in report.items():
            print(
                f"{case:<16} {name:<16} {row['seconds']:>9.4f} {row['flops']:>8d} "
                f"{row['output_nnz']:>8d} {row['compression_factor']:>6.2f} "
                f"{row['intermediate_bytes']:>13d} {row['peak_bytes']:>13d}"
            )
    _check(reports)
    print(
        f"smoke OK: backends agree bit-for-bit; the default ({DEFAULT_KERNEL!r}) "
        "peaks no higher than gustavson on the pipeline-shaped case"
    )


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv:
        _smoke()
    else:
        sys.exit("usage: python benchmarks/bench_kernels.py --smoke "
                 "(full benchmarks run via: pytest benchmarks/ --benchmark-only)")
