"""Run observability: metrics facade, run registry, regression detection.

Three layers over the one event stream :mod:`repro.trace` records:

* :class:`MetricsHub` — typed counters/gauges/histograms with label
  sets.  A run with ``PastisParams.metrics`` records into the same
  :class:`~repro.trace.TraceRecorder` a traced run does (ledger charge
  hooks, SUMMA kernel and dispatch spans, phase spans), and the pipeline
  reduces that recorder to a hub with :meth:`MetricsHub.from_trace` at the
  end of the run, adding the cache, lane and memory gauges.  The hub
  rides on ``SearchResult.metrics``.
* :mod:`repro.obs.manifest` / :mod:`repro.obs.registry` — every
  ``PastisPipeline.run`` with ``PastisParams.run_registry`` set writes a
  schema-versioned ``run.json`` manifest (success *and* failure paths)
  into a local registry directory.
* :mod:`repro.obs.regress` — robust (median + MAD) per-host regression
  detection over registry runs and ``BENCH_*.json`` trajectories, via
  ``python -m repro.obs regress``.

This ``__init__`` imports only the stdlib-only metrics module; manifest,
registry, and regress are imported explicitly by their users.

Like tracing, collection is off by default, near-zero-cost when
disabled, and non-perturbing — ``tests/test_obs.py`` asserts
bit-identity with metrics on, per scheduler.
"""

from __future__ import annotations

from .metrics import MetricsHub, prometheus_from_snapshot

__all__ = [
    "MetricsHub",
    "prometheus_from_snapshot",
]
