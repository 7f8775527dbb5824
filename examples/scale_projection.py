#!/usr/bin/env python
"""Project a measured small-scale run to Summit scale (the paper's Table IV).

Runs the actual pipeline on a few hundred synthetic sequences, calibrates a
workload profile from the measured counters (candidates per sequence pair,
DP cells per alignment, SpGEMM flops per candidate, ...), scales that profile
to 405 million sequences with the paper's quadratic/linear growth rules, and
feeds it to the analytic performance model to estimate the full-scale
production run on 3364 Summit nodes — alongside the projection built directly
from the paper's own Table IV workload numbers.

Run with:  python examples/scale_projection.py
"""

from __future__ import annotations

from repro import PastisParams, PastisPipeline, synthetic_dataset
from repro.io.tables import format_table
from repro.perfmodel import AnalyticModel, WorkloadProfile, calibrate_profile


def main() -> None:
    # ---- 1. measure a small run of the real pipeline ------------------------
    sequences = synthetic_dataset(n_sequences=250, seed=3)
    params = PastisParams(
        kmer_length=6,
        common_kmer_threshold=1,
        nodes=4,
        num_blocks=4,
        load_balancing="triangularity",
        pre_blocking=True,
    )
    result = PastisPipeline(params).run(sequences)
    print(
        f"measured run: {len(sequences)} sequences, "
        f"{result.stats.candidates_discovered} candidates, "
        f"{result.stats.alignments_performed} alignments, "
        f"{result.stats.similar_pairs} similar pairs"
    )

    # ---- 2. calibrate a workload profile and scale it to 405M sequences ------
    coeffs = calibrate_profile(result)
    calibrated = coeffs.profile_for(405e6, num_blocks=400)

    # ---- 3. paper-derived profile for reference ------------------------------
    paper_profile = WorkloadProfile.paper_production()

    model = AnalyticModel(load_balancing="triangularity", pre_blocking=True)
    rows = []
    for name, profile in (("calibrated (synthetic)", calibrated), ("paper workload", paper_profile)):
        metrics = model.production_metrics(profile, 3364)
        rows.append(
            [
                name,
                f"{profile.alignments:.3g}",
                f"{metrics['runtime_hours']:.2f}",
                f"{metrics['align_hours']:.2f}",
                f"{metrics['spgemm_hours']:.2f}",
                f"{metrics['alignments_per_second']:.3g}",
                f"{metrics['tcups']:.1f}",
                f"{metrics['io_percent']:.2f}",
            ]
        )
    rows.append(
        ["paper (measured, Table IV)", "8.55e+12", "3.44", "2.62", "2.06", "6.91e+08", "176.3", "~3"]
    )
    print()
    print(
        format_table(
            ["profile", "alignments", "total h", "align h", "spgemm h", "aln/s", "TCUPS", "IO %"],
            rows,
        )
    )
    print(
        "\nThe calibrated row extrapolates the synthetic dataset's per-pair\n"
        "statistics quadratically; synthetic families are denser than Metaclust,\n"
        "so its workload (and runtime) overshoots.  The 'paper workload' row uses\n"
        "the paper's own candidate/alignment counts and reproduces the headline\n"
        "rates within the tolerances tests/test_perfmodel.py asserts."
    )


if __name__ == "__main__":
    main()
