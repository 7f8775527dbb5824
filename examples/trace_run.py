#!/usr/bin/env python
"""Trace a run and open it in Perfetto, end to end.

The walkthrough for :mod:`repro.trace`:

1. run the PASTIS search on a synthetic catalog with
   ``PastisParams.trace_dir`` set, under the process scheduler with a
   stage cache — a cold populating run, then a traced warm run, so the
   trace shows cache loads in the worker processes and the parent's
   block-ordered replay;
2. look at what the recorder collected: per-stage spans (discover /
   prune / align / accumulate), SUMMA broadcast stages, admission waits,
   cache loads and replays, with pid attribution across the parent and
   the discover workers — and reduce the same recorder to the run's
   metrics (:meth:`repro.obs.MetricsHub.from_trace`), the one stream
   both views come from;
3. print the per-stage/per-lane breakdown the CLI would print
   (``python -m repro.trace summarize <trace_dir>``);
4. point at the Perfetto document — drag ``trace.json`` onto
   https://ui.perfetto.dev (or ``chrome://tracing``) to see the timeline.

Tracing is off by default and non-perturbing: the traced run's edges are
bit-identical to an untraced one (asserted below, and by
``tests/test_trace.py`` for all four schedulers).

Run with:  python examples/trace_run.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import PastisParams, PastisPipeline
from repro.obs import MetricsHub
from repro.sequences.synthetic import SyntheticDatasetConfig, synthetic_dataset
from repro.trace import summarize_text

OUT_DIR = Path("trace-example")


def main() -> None:
    # ---- 1. a traced warm-cache run under the process scheduler --------------
    config = SyntheticDatasetConfig(
        n_sequences=120,
        family_fraction=0.75,
        mean_family_size=5.0,
        mutation_rate=0.09,
        fragment_probability=0.10,
        seed=97,
    )
    sequences = synthetic_dataset(config=config)
    with tempfile.TemporaryDirectory(prefix="trace-example-cache-") as cache_dir:
        params = PastisParams(
            kmer_length=5,
            common_kmer_threshold=1,
            nodes=4,
            num_blocks=6,
            load_balancing="index",
            pre_blocking=True,
            scheduler="process",
            preblock_depth=3,
            cache_dir=cache_dir,
        )
        print("cold run (populates the stage cache, untraced)...")
        cold = PastisPipeline(params).run(sequences)
        print(f"  {cold.stats.similar_pairs:,} similar pairs, "
              f"{cold.stats.extras['cache']['stores']} blocks cached")

        print(f"warm traced run (trace_dir={OUT_DIR})...")
        traced = PastisPipeline(
            params.replace(trace_dir=str(OUT_DIR))
        ).run(sequences, resume=True)

    # non-perturbation: tracing never changes results
    assert np.array_equal(
        cold.similarity_graph.edges, traced.similarity_graph.edges
    ), "traced run diverged from the untraced one"

    # ---- 2. what the recorder collected --------------------------------------
    recorder = traced.trace
    pids = sorted({span.pid for span in recorder.spans})
    workers = [pid for pid in pids if pid != recorder.pid]
    print(f"\nrecorded {len(recorder.spans)} spans, "
          f"{len(recorder.counters)} counter samples")
    print(f"parent pid {recorder.pid}, discover workers {workers}")
    for name in ("cache_load", "cache_replay", "admission_wait", "accumulate"):
        count = sum(1 for span in recorder.spans if span.name == name)
        print(f"  {name:<16} x{count}")
    hub = MetricsHub.from_trace(recorder)
    print(f"  ledger align seconds {hub.value('ledger_seconds', category='align'):.6f} "
          "(MetricsHub.from_trace over the same recorder)")

    # ---- 3. the CLI's per-stage / per-lane breakdown -------------------------
    print("\n" + summarize_text(OUT_DIR / "trace.jsonl"))

    # ---- 4. where to look at it ----------------------------------------------
    print(f"\nPerfetto document: {OUT_DIR / 'trace.json'}")
    print("open https://ui.perfetto.dev and drag the file in, or load it "
          "in chrome://tracing; the same breakdown is available via\n"
          f"  python -m repro.trace summarize {OUT_DIR}")


if __name__ == "__main__":
    main()
