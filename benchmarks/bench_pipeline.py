"""Serial vs. overlapped (pre-blocking) scheduler benchmark.

Runs the full pipeline on a seeded synthetic workload under both schedulers
of the stage-graph execution engine and writes a machine-readable trajectory
artifact, ``benchmarks/results/BENCH_pipeline.json``: total and component
seconds on the modeled clock, the Table-I overlap ratios, and the streaming
accumulator's peak/retained block bytes.  CI runs the ``--smoke`` mode on
every build and uploads the JSON as a workflow artifact, so scheduler
regressions (overlap stops paying, streaming stops bounding memory) show up
as a diffable time series across commits.
"""

from __future__ import annotations

from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.sequences.synthetic import SyntheticDatasetConfig, synthetic_dataset

from _results import save_results

#: Seeded workload: enough families that alignment and sparse discovery are
#: both substantial and reasonably balanced, so the overlap has something to
#: hide.  (At toy scale the *total* is dominated by IO/communication, so the
#: benchmark asserts the overlap gain on the discovery/alignment phase —
#: ``combined_pre < sum`` — and reports the total ratio informationally,
#: like ``bench_table1_preblocking``.)
WORKLOAD = dict(
    n_sequences=120,
    family_fraction=0.75,
    mean_family_size=5.0,
    mutation_rate=0.09,
    fragment_probability=0.1,
    seed=97,
)


def _result_row(result) -> dict:
    stats = result.stats
    return {
        "scheduler": result.scheduler,
        "time_total": stats.time_total,
        "time_align": stats.time_align,
        "time_spgemm": stats.time_spgemm,
        "time_sparse_all": stats.time_sparse_all,
        "time_io": stats.time_io,
        "time_comm": stats.time_comm,
        "time_cwait": stats.time_cwait,
        "similar_pairs": stats.similar_pairs,
        "alignments_performed": stats.alignments_performed,
        "peak_block_bytes": stats.peak_block_bytes,
        "peak_live_block_bytes": stats.extras["peak_live_block_bytes"],
        "retained_block_bytes": stats.extras["retained_block_bytes"],
        "wall_seconds": stats.wall_seconds,
    }


def run_scheduler_comparison(workload: dict, num_blocks: int = 6, nodes: int = 4) -> dict:
    """Run both schedulers on the same workload; return the comparison report."""
    seqs = synthetic_dataset(config=SyntheticDatasetConfig(**workload))
    base = PastisParams(
        kmer_length=5,
        common_kmer_threshold=1,
        nodes=nodes,
        num_blocks=num_blocks,
        load_balancing="index",
    )
    serial = PastisPipeline(base).run(seqs)
    overlapped = PastisPipeline(base.replace(pre_blocking=True)).run(seqs)
    assert serial.similarity_graph == overlapped.similarity_graph, (
        "schedulers disagree on the similarity graph"
    )

    report = overlapped.preblocking_report
    out = {
        "workload": dict(workload),
        "num_blocks": num_blocks,
        "nodes": nodes,
        "serial": _result_row(serial),
        "overlapped": _result_row(overlapped),
        "preblocking": {
            "sum_seconds": report.sum_seconds,
            "combined_seconds_pre": report.combined_seconds_pre,
            "normalized_total": report.normalized_total,
            "normalized_align": report.normalized_align,
            "normalized_sparse": report.normalized_sparse,
            "efficiency_percent": report.efficiency_percent,
        },
        "phase_speedup": report.sum_seconds / report.combined_seconds_pre,
        "total_speedup": serial.stats.time_total / overlapped.stats.time_total,
    }
    return out


def _print_report(out: dict) -> None:
    header = f"{'scheduler':<12} {'total':>10} {'align':>10} {'sparse':>10} {'peak live B':>12} {'retained B':>12}"
    print(header)
    print("-" * len(header))
    for name in ("serial", "overlapped"):
        row = out[name]
        print(
            f"{name:<12} {row['time_total']:>10.4f} {row['time_align']:>10.4f} "
            f"{row['time_spgemm']:>10.4f} {row['peak_live_block_bytes']:>12.0f} "
            f"{row['retained_block_bytes']:>12.0f}"
        )
    pre = out["preblocking"]
    print(
        f"overlap: discover+align phase x{1 / out['phase_speedup']:.3f}, total "
        f"x{pre['normalized_total']:.3f}  (align x{pre['normalized_align']:.2f}, "
        f"sparse x{pre['normalized_sparse']:.2f}, efficiency {pre['efficiency_percent']:.1f}%)"
    )


def test_pipeline_scheduler_benchmark(benchmark, bench_sequences, bench_params):
    """Serial vs overlapped on the shared benchmark workload (pytest-benchmark)."""
    out = run_scheduler_comparison(WORKLOAD)
    params = bench_params.replace(num_blocks=6, pre_blocking=True)
    benchmark(lambda: PastisPipeline(params).run(bench_sequences))
    for name in ("serial", "overlapped"):
        benchmark.extra_info[f"{name}_time_total"] = out[name]["time_total"]
    save_results("BENCH_pipeline", out)
    _print_report(out)
    assert out["phase_speedup"] > 1.0
    assert (
        out["overlapped"]["peak_live_block_bytes"]
        < out["overlapped"]["retained_block_bytes"]
    )


def _smoke() -> None:
    """Standalone comparison (no pytest-benchmark needed) — used by CI."""
    out = run_scheduler_comparison(WORKLOAD, num_blocks=6)
    _print_report(out)
    save_results("BENCH_pipeline", out)
    pre = out["preblocking"]
    assert out["phase_speedup"] > 1.0, "overlap stopped paying on the overlapped phase"
    assert 0.0 < pre["efficiency_percent"] <= 100.0
    for name in ("serial", "overlapped"):
        row = out[name]
        assert row["peak_live_block_bytes"] < row["retained_block_bytes"], (
            f"{name}: streaming no longer bounds block memory"
        )
    print("smoke OK: overlapped discover+align beats back-to-back on the modeled "
          "clock; streaming peak stays below retained block bytes")


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv:
        _smoke()
    else:
        sys.exit("usage: python benchmarks/bench_pipeline.py --smoke "
                 "(full benchmarks run via: pytest benchmarks/ --benchmark-only)")
