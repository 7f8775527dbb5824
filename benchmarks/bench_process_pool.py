"""Measured-clock scheduler x kernel sweep of the process executor.

``bench_overlap_depth.py`` sweeps the *threaded* executor's depth axis; this
bench pits the two real executors against each other on the axis that
separates them: the GIL.  The threaded discover lane only overlaps to the
extent the SpGEMM kernels release the GIL; the
:class:`~repro.core.engine.process_executor.ProcessScheduler` runs the lane
in worker processes with shared-memory block transport, so the overlap
survives pure-Python stage orchestration at the cost of fork + shm-mapping
overhead per block.

The sweep crosses scheduler {threaded, process} x local SpGEMM kernel
(the registry default ``expand``, ``gustavson``, plus ``gustavson-numba``
when the optional numba extra is installed — ``pip install .[fast]``), all at speculative depth 2 under
``clock="measured"`` (one discover thread; ``depth`` worker processes).
Every configuration is asserted bit-identical to the serial baseline —
scheduler and kernel may move wall time, never results.

Reported per row (same semantics as bench_overlap_depth):

* ``wall_speedup`` — serial stage-loop wall seconds over the executor's
  (best of ``repeats``); needs >= 2 usable cores to materialize, so the
  smoke asserts it only when the machine has them.
* ``schedule_speedup`` — the depth-k overlap algebra on the measured
  per-rank stage seconds: how much of the discover lane the schedule hid.
* process rows add ``shm_peak_block_bytes`` / ``shm_total_bytes`` — the
  shared-memory transport footprint surfaced by the executor.

Writes ``benchmarks/results/BENCH_process_pool.json``; CI runs ``--smoke``
and uploads the JSON as a workflow artifact.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.sequences.synthetic import SyntheticDatasetConfig, synthetic_dataset
from repro.sparse.kernels import DEFAULT_KERNEL, available_kernels

from _results import save_results

#: Substitute-k-mer seeding keeps the discover lane a large share of the
#: phase — the regime where moving it off the GIL can pay (same workload as
#: the depth sweep, so the two benches are comparable).
WORKLOAD = dict(
    n_sequences=90,
    family_fraction=0.75,
    mean_family_size=5.0,
    mutation_rate=0.09,
    fragment_probability=0.1,
    seed=97,
)
SCHEDULERS = ("threaded", "process")
DEPTH = 2


def _kernels() -> tuple[str, ...]:
    """The default and pure-NumPy gustavson always; the compiled backend
    when registered."""
    kernels = [DEFAULT_KERNEL, "gustavson"]
    if "gustavson-numba" in available_kernels():
        kernels.append("gustavson-numba")
    return tuple(kernels)


def _params(**overrides) -> PastisParams:
    return PastisParams(
        kmer_length=6,
        substitute_kmers=2,
        common_kmer_threshold=2,
        nodes=4,
        num_blocks=8,
        clock="measured",
        **overrides,
    )


def _run(seqs, params, repeats: int):
    """Best stage-loop wall seconds over ``repeats`` runs + the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        result = PastisPipeline(params).run(seqs)
        best = min(best, result.timeline.measured_phase_seconds)
    return best, result


def _schedule_speedup(result) -> float:
    """sum(align + spgemm) / combined clock on the run's measured seconds."""
    ledger = result.ledger
    summed = float((ledger.per_rank("align") + ledger.per_rank("spgemm")).max())
    combined = float(result.timeline.combined_per_rank.max())
    return summed / combined if combined > 0 else 1.0


def run_pool_sweep(
    schedulers=SCHEDULERS,
    kernels: tuple[str, ...] | None = None,
    repeats: int = 2,
    workload=WORKLOAD,
) -> dict:
    """Serial baseline per kernel + scheduler x kernel sweep."""
    if kernels is None:
        kernels = _kernels()
    seqs = synthetic_dataset(config=SyntheticDatasetConfig(**workload))

    serials = {}
    reference_edges = None
    for kernel in kernels:
        best, result = _run(seqs, _params(spgemm_backend=kernel), repeats)
        edges = result.similarity_graph.edges
        if reference_edges is None:
            reference_edges = edges
        else:
            # the kernels themselves are bit-identical backends
            assert np.array_equal(edges, reference_edges), (
                f"kernel {kernel}: serial results diverged across kernels"
            )
        serials[kernel] = {
            "phase_seconds": best,
            "measured_discover_seconds": result.stats.extras[
                "measured_discover_seconds"
            ],
            "measured_align_seconds": result.stats.extras["measured_align_seconds"],
        }

    rows = []
    for kernel in kernels:
        for scheduler in schedulers:
            best, result = _run(
                seqs,
                _params(
                    spgemm_backend=kernel,
                    pre_blocking=True,
                    preblock_depth=DEPTH,
                    scheduler=scheduler,
                ),
                repeats,
            )
            assert result.scheduler == scheduler
            assert np.array_equal(result.similarity_graph.edges, reference_edges), (
                f"scheduler={scheduler} kernel={kernel}: results diverged from serial"
            )
            row = {
                "scheduler": scheduler,
                "kernel": kernel,
                "phase_seconds": best,
                "wall_speedup": serials[kernel]["phase_seconds"] / best,
                "schedule_speedup": _schedule_speedup(result),
                "peak_live_blocks": result.stats.extras["peak_live_blocks"],
            }
            if scheduler == "process":
                row["shm_peak_block_bytes"] = result.stats.extras["shm_peak_block_bytes"]
                row["shm_total_bytes"] = result.stats.extras["shm_total_bytes"]
            rows.append(row)

    best_row = max(rows, key=lambda r: r["wall_speedup"])
    return {
        "workload": dict(workload),
        "repeats": repeats,
        "depth": DEPTH,
        "kernels": list(kernels),
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "serial": serials,
        "rows": rows,
        "best_wall_speedup": best_row["wall_speedup"],
        "best_config": {"scheduler": best_row["scheduler"], "kernel": best_row["kernel"]},
    }


def _print_report(out: dict) -> None:
    for kernel, serial in out["serial"].items():
        print(
            f"serial[{kernel}] phase {serial['phase_seconds']:.2f}s "
            f"(discover {serial['measured_discover_seconds']:.2f}s, "
            f"align {serial['measured_align_seconds']:.2f}s)"
        )
    print(f"{out['usable_cpus']} usable CPUs, depth={out['depth']}")
    header = (
        f"{'scheduler':>9} {'kernel':>15} {'phase s':>8} "
        f"{'wall x':>7} {'sched x':>8} {'shm peak':>10}"
    )
    print(header)
    print("-" * len(header))
    for row in out["rows"]:
        shm = row.get("shm_peak_block_bytes")
        print(
            f"{row['scheduler']:>9} {row['kernel']:>15} "
            f"{row['phase_seconds']:>8.2f} {row['wall_speedup']:>7.2f} "
            f"{row['schedule_speedup']:>8.2f} "
            f"{'-' if shm is None else f'{shm:.0f}':>10}"
        )
    best = out["best_config"]
    print(
        f"best wall speedup x{out['best_wall_speedup']:.2f} at "
        f"scheduler={best['scheduler']} kernel={best['kernel']}"
    )


def _assert_invariants(out: dict) -> None:
    for row in out["rows"]:
        label = f"{row['scheduler']} kernel={row['kernel']}"
        assert row["peak_live_blocks"] <= out["depth"] + 1, (
            f"{label}: accumulator admitted more than depth+1 blocks"
        )
        assert row["schedule_speedup"] > 1.0, (
            f"{label}: the executed schedule hid nothing"
        )
        if row["scheduler"] == "process":
            # shm transport actually carried the blocks
            assert row["shm_total_bytes"] >= row["shm_peak_block_bytes"] > 0, label


def _remeasure_best(out: dict, repeats: int = 3) -> float:
    """Re-measure serial vs. the best process config back to back.

    Shared CI hardware is noisy; before declaring the process overlap gone,
    re-run the contenders head to head with more repeats.
    """
    seqs = synthetic_dataset(config=SyntheticDatasetConfig(**out["workload"]))
    process_rows = [r for r in out["rows"] if r["scheduler"] == "process"]
    best = max(process_rows, key=lambda r: r["wall_speedup"])
    serial_best, _ = _run(
        seqs, _params(spgemm_backend=best["kernel"]), repeats
    )
    process_best, _ = _run(
        seqs,
        _params(
            spgemm_backend=best["kernel"],
            pre_blocking=True,
            preblock_depth=DEPTH,
            scheduler="process",
        ),
        repeats,
    )
    return serial_best / process_best


def test_process_pool_benchmark(benchmark):
    """Scheduler x kernel sweep (pytest-benchmark wrapper)."""
    out = run_pool_sweep(repeats=2)
    save_results("BENCH_process_pool", out)
    _print_report(out)
    _assert_invariants(out)
    seqs = synthetic_dataset(config=SyntheticDatasetConfig(**WORKLOAD))
    params = _params(pre_blocking=True, preblock_depth=DEPTH, scheduler="process")
    benchmark(lambda: PastisPipeline(params).run(seqs))
    benchmark.extra_info["best_wall_speedup"] = out["best_wall_speedup"]


def _smoke() -> None:
    """Standalone sweep — used by CI."""
    out = run_pool_sweep(repeats=2)
    _print_report(out)
    save_results("BENCH_process_pool", out)
    _assert_invariants(out)
    process_rows = [r for r in out["rows"] if r["scheduler"] == "process"]
    best_process = max(r["wall_speedup"] for r in process_rows)
    if out["usable_cpus"] >= 2:
        # acceptance: the process pool beats serial by a real margin once
        # the lanes can actually run in parallel
        if best_process <= 1.3:
            best_process = max(best_process, _remeasure_best(out))
            out["remeasured_process_wall_speedup"] = best_process
            save_results("BENCH_process_pool", out)
        assert best_process > 1.3, (
            "process executor wall speedup x"
            f"{best_process:.2f} <= 1.3 on a {out['usable_cpus']}-CPU machine "
            "(even after re-measuring)"
        )
        print(
            f"smoke OK: process pool wall speedup x{best_process:.2f} over "
            "serial; schedule hid background work in every configuration"
        )
    else:
        # one usable core: the speculative worker time-slices against the
        # foreground lane, so every in-order block round-trip runs at a
        # fraction of native speed — a ~2x slowdown is the *expected* cost
        # of oversubscribing one core, not an executor bug.  The floor only
        # guards against a pathological regression (deadlock-adjacent
        # stalls, per-block fork storms); the real gates on this machine
        # are bit-identity and the schedule invariants above.
        assert best_process > 0.25, (
            "process executor overhead is pathological on one core "
            f"(x{best_process:.2f})"
        )
        print(
            "smoke OK (single CPU: wall speedup not asserted, process best "
            f"x{best_process:.2f}); schedule hid background work in every "
            "configuration"
        )


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv:
        _smoke()
    else:
        sys.exit("usage: python benchmarks/bench_process_pool.py --smoke "
                 "(full benchmarks run via: pytest benchmarks/ --benchmark-only)")
