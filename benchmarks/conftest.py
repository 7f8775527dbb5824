"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation.
Each prints a paper-style table to stdout (run with
``pytest benchmarks/ --benchmark-only -s`` to see them) and writes the
underlying series to ``benchmarks/results/*.json``.

Datasets are small synthetic surrogates; the quantities compared against the
paper are *shapes* (who wins, by what factor, how trends move with the number
of blocks / nodes), not absolute seconds.
"""

from __future__ import annotations

import pytest

from repro.core.params import PastisParams
from repro.sequences.synthetic import SyntheticDatasetConfig, synthetic_dataset

# the writer lives in _results.py (stamped meta + the bench trajectory);
# re-exported here for backward compatibility with `from conftest import ...`
from _results import RESULTS_DIR, save_results  # noqa: F401


@pytest.fixture(scope="session")
def bench_sequences():
    """The dataset used by the figure/table benchmarks (~120 sequences)."""
    config = SyntheticDatasetConfig(
        n_sequences=120,
        family_fraction=0.75,
        mean_family_size=5.0,
        mutation_rate=0.09,
        fragment_probability=0.1,
        seed=97,
    )
    return synthetic_dataset(config=config)


@pytest.fixture(scope="session")
def bench_params() -> PastisParams:
    """Baseline pipeline parameters for the benchmarks."""
    return PastisParams(
        kmer_length=5,
        common_kmer_threshold=1,
        nodes=4,
        num_blocks=4,
        load_balancing="index",
        pre_blocking=False,
        align_batch_size=128,
    )
