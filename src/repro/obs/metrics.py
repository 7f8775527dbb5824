"""Unified metrics facade: typed counters, gauges, and histograms.

A :class:`MetricsHub` is the typed, labeled view of one run: ledger
seconds per category, phase seconds, per-SUMMA-stage kernel records
(measured compression factor + per-kernel seconds), plus the end-of-run
cache, lane and memory gauges.

The hub records nothing while the run executes.  Every instrumented site
emits into the run's one :class:`repro.trace.TraceRecorder` — ledger
charges bump its cumulative ``ledger.<category>`` counters, SUMMA records
``spgemm_kernel`` spans, the pipeline records ``phase`` spans, and
process-scheduler workers ship all of it home on the recorder's own
block-header journal.
:meth:`MetricsHub.from_trace` reduces that one event stream to the
metric series at the end of the run (or when it dies), so spans and
counters are recorded once, on one path.

The hub is also a plain standalone store (the serving batcher keeps its
own ``serve_*`` hub) and renders as a ``run.json`` snapshot or as
Prometheus text.  This module depends only on the standard library.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Mapping

__all__ = [
    "MetricsHub",
    "prometheus_from_snapshot",
]

#: labels are stored canonically as a sorted tuple of (key, str(value))
LabelKey = tuple[tuple[str, str], ...]


def _labels_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Hist:
    """Running aggregate of one histogram series: count/sum/min/max."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def as_dict(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }


class MetricsHub:
    """Thread-safe store of labeled counters, gauges, and histograms.

    The typed facade is :meth:`counter_add`, :meth:`gauge_set`, and
    :meth:`observe`; labels are passed as keyword arguments::

        hub.counter_add("spgemm_stage_invocations", 1.0, backend="expand")
        hub.observe("spgemm_kernel_seconds", dt, backend="expand", stage="2")

    A pipeline run's hub is built by :meth:`from_trace` from the run's
    trace recorder.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, LabelKey], float] = {}
        self._gauges: dict[tuple[str, LabelKey], float] = {}
        self._hists: dict[tuple[str, LabelKey], _Hist] = {}

    @classmethod
    def from_trace(cls, recorder: Any) -> "MetricsHub":
        """Reduce a :class:`repro.trace.TraceRecorder` to metric series.

        * ``ledger_seconds{category}`` — the recorder's cumulative
          ``ledger.<category>`` counters (the same floats, added in the
          same order, cache-replay restores included);
        * ``spgemm_stage_invocations``/``spgemm_stage_flops{backend}`` and
          the ``spgemm_kernel_seconds``/``spgemm_compression_factor
          {backend, stage}`` histograms — one per ``spgemm_kernel`` span,
          taken in recorder order (the span's duration is the kernel time);
        * ``phase_seconds{phase}`` — the summed ``phase`` spans.
        """
        hub = cls()
        for name, value in recorder.cumulative().items():
            if name.startswith("ledger."):
                hub.counter_add("ledger_seconds", value, category=name[7:])
        spans, _ = recorder.snapshot()
        phases: dict[str, float] = {}
        for span in spans:
            attrs = span.attrs_dict()
            if span.name == "spgemm_kernel":
                backend, stage = attrs["backend"], attrs["stage"]
                hub.counter_add("spgemm_stage_invocations", 1.0, backend=backend)
                hub.counter_add("spgemm_stage_flops", attrs["flops"], backend=backend)
                hub.observe(
                    "spgemm_kernel_seconds", span.duration, backend=backend, stage=stage
                )
                hub.observe(
                    "spgemm_compression_factor", attrs["cf"], backend=backend, stage=stage
                )
            elif span.category == "phase":
                phases[span.name] = phases.get(span.name, 0.0) + span.duration
        for name, seconds in phases.items():
            hub.gauge_set("phase_seconds", seconds, phase=name)
        return hub

    # ---- typed facade ----------------------------------------------------

    def counter_add(self, name: str, value: float = 1.0, **labels: Any) -> None:
        key = (name, _labels_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + float(value)

    def gauge_set(self, name: str, value: float, **labels: Any) -> None:
        key = (name, _labels_key(labels))
        with self._lock:
            self._gauges[key] = float(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = (name, _labels_key(labels))
        with self._lock:
            hist = self._hists.get(key)
            if hist is None:
                hist = self._hists[key] = _Hist()
            hist.observe(float(value))

    # ---- views -----------------------------------------------------------

    def value(self, name: str, default: float = 0.0, **labels: Any) -> float:
        """Current value of one counter or gauge (tests/diagnostics)."""
        key = (name, _labels_key(labels))
        with self._lock:
            if key in self._counters:
                return self._counters[key]
            return self._gauges.get(key, default)

    def histogram(self, name: str, **labels: Any) -> dict[str, float] | None:
        key = (name, _labels_key(labels))
        with self._lock:
            hist = self._hists.get(key)
            return hist.as_dict() if hist is not None else None

    def snapshot(self) -> dict[str, list[dict[str, Any]]]:
        """JSON-serializable dump of every series, deterministically sorted."""

        def row(key: tuple[str, LabelKey], extra: dict[str, float]) -> dict[str, Any]:
            name, labels = key
            return {"name": name, "labels": dict(labels), **extra}

        with self._lock:
            return {
                "counters": [
                    row(key, {"value": value})
                    for key, value in sorted(self._counters.items())
                ],
                "gauges": [
                    row(key, {"value": value})
                    for key, value in sorted(self._gauges.items())
                ],
                "histograms": [
                    row(key, hist.as_dict())
                    for key, hist in sorted(self._hists.items())
                ],
            }

    def prometheus_text(self, prefix: str = "pastis_") -> str:
        return prometheus_from_snapshot(self.snapshot(), prefix=prefix)


# ---- Prometheus text exposition ------------------------------------------


def _prom_name(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)


def _prom_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{_prom_name(k)}="{_prom_escape(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def prometheus_from_snapshot(
    snapshot: Mapping[str, Any],
    prefix: str = "pastis_",
    extra_lines: Iterable[str] = (),
) -> str:
    """Render a :meth:`MetricsHub.snapshot` in Prometheus text format.

    Histograms are exposed as ``_count``/``_sum`` summary pairs plus
    ``_min``/``_max`` gauges (native histogram buckets would force a
    bucket layout on callers; the four aggregates are what the
    regression detector and adaptive dispatch consume).
    """
    lines: list[str] = []
    seen_types: set[str] = set()

    def emit(name: str, kind: str, labels: Mapping[str, str], value: float) -> None:
        full = _prom_name(prefix + name)
        if full not in seen_types:
            lines.append(f"# TYPE {full} {kind}")
            seen_types.add(full)
        lines.append(f"{full}{_prom_labels(labels)} {value:.9g}")

    for entry in snapshot.get("counters", []):
        emit(entry["name"], "counter", entry["labels"], entry["value"])
    for entry in snapshot.get("gauges", []):
        emit(entry["name"], "gauge", entry["labels"], entry["value"])
    for entry in snapshot.get("histograms", []):
        name, labels = entry["name"], entry["labels"]
        emit(name + "_count", "counter", labels, entry["count"])
        emit(name + "_sum", "counter", labels, entry["sum"])
        emit(name + "_min", "gauge", labels, entry["min"])
        emit(name + "_max", "gauge", labels, entry["max"])
    lines.extend(extra_lines)
    return "\n".join(lines) + "\n"
