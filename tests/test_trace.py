"""Structured run tracing: non-perturbation, export schema, worker merge.

The tracing contract under test has three legs:

* **Non-perturbation** — a traced run is bit-identical to the same run
  untraced, per scheduler: records, edges, every deterministic ledger
  category and counter.  The recorder only ever appends to its own lists,
  and these tests are the proof.
* **Export schema** — the Chrome trace-event document is structurally
  valid (every complete event has ``ph``/``ts``/``dur``/``pid``/``tid``)
  and spans on one ``(pid, tid)`` row are disjoint or properly nested, so
  Perfetto renders them without overlap artifacts.
* **Worker merge** — process-scheduler workers journal spans into the
  per-block header; the parent merge preserves worker-pid attribution
  (≥ 2 worker pids on a multi-worker run) and a SIGKILLed run still
  exports a valid partial trace from the failure path.
"""

from __future__ import annotations

import json
import time as time_mod

import numpy as np
import pytest

from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.io.report import run_report
from repro.trace import (
    CHROME_NAME,
    JSONL_NAME,
    TraceRecorder,
    current_tracer,
    maybe_span,
    read_jsonl,
    write_trace,
)
from repro.trace.__main__ import main as trace_cli
from repro.trace.recorder import NULL_SPAN

#: Ledger state that must be bit-identical with tracing on: the modeled
#: time categories plus the informational overlap category, and every
#: deterministic counter.  ``spgemm_measured`` (wall seconds) is excluded.
LEDGER_CATEGORIES = (
    "align", "spgemm", "comm", "cwait", "sparse_other", "io", "overlap_hidden",
)
LEDGER_COUNTERS = (
    "spgemm_flops", "bytes_sent", "bytes_received", "alignments", "alignment_cells",
)

#: SearchStats keys that legitimately differ between two executions of the
#: same run (wall clocks, per-run cache/lane identities, concurrency peaks).
NONCOMPARABLE_STATS_KEYS = frozenset(
    {
        "wall_seconds",
        "phase_seconds",
        "cache",
        "measured_align_seconds",
        "measured_discover_seconds",
        "peak_live_blocks",
        "peak_live_block_bytes",
        "process_lanes",
        "shm_peak_block_bytes",
        "shm_total_bytes",
    }
)

SCHEDULER_OVERRIDES = [
    pytest.param({}, id="serial"),
    pytest.param({"pre_blocking": True}, id="overlapped"),
    pytest.param(
        {"pre_blocking": True, "preblock_depth": 2, "scheduler": "threaded"},
        id="threaded",
    ),
    pytest.param(
        {"pre_blocking": True, "preblock_depth": 2, "scheduler": "process"},
        id="process",
    ),
]


def _run(seqs, fast_params, **overrides):
    return PastisPipeline(fast_params.replace(num_blocks=4, **overrides)).run(seqs)


def assert_traced_identical(untraced, traced):
    """Bit-identity of everything deterministic between a traced and an
    untraced execution of the same configuration."""
    assert np.array_equal(
        untraced.similarity_graph.edges, traced.similarity_graph.edges
    )
    assert len(untraced.block_records) == len(traced.block_records)
    for ra, rb in zip(untraced.block_records, traced.block_records):
        assert (ra.block_row, ra.block_col) == (rb.block_row, rb.block_col)
        assert (ra.candidates, ra.aligned_pairs, ra.similar_pairs) == (
            rb.candidates, rb.aligned_pairs, rb.similar_pairs
        )
        assert np.array_equal(ra.sparse_seconds_per_rank, rb.sparse_seconds_per_rank)
        assert np.array_equal(ra.align_seconds_per_rank, rb.align_seconds_per_rank)
    for category in LEDGER_CATEGORIES:
        assert np.array_equal(
            untraced.ledger.per_rank(category), traced.ledger.per_rank(category)
        ), f"ledger category {category!r} perturbed by tracing"
    for counter in LEDGER_COUNTERS:
        assert np.array_equal(
            untraced.ledger.counter_per_rank(counter),
            traced.ledger.counter_per_rank(counter),
        ), f"ledger counter {counter!r} perturbed by tracing"
    su, st = untraced.stats.as_dict(), traced.stats.as_dict()
    assert set(su) == set(st), "tracing changed the stats key set"
    for key in su:
        if key in NONCOMPARABLE_STATS_KEYS:
            continue
        assert su[key] == st[key], f"stats key {key!r} perturbed by tracing"


# ---------------------------------------------------------------------------
# recorder unit behavior
# ---------------------------------------------------------------------------


def test_recorder_span_and_counter_basics():
    rec = TraceRecorder()
    with rec.span("discover", "stage", lane="discover", block=(0, 1), nnz=7) as span:
        span.set(flops=12.0)
    rec.add_span("turnstile_wait", "wait", 1.0, 2.5, lane="discover")
    assert len(rec.spans) == 2
    first = rec.spans[0]
    assert first.name == "discover" and first.category == "stage"
    assert first.block == (0, 1)
    assert first.attrs_dict() == {"flops": 12.0, "nnz": 7}
    assert first.duration >= 0.0
    assert rec.spans[1].duration == 2.5 - 1.0

    rec.bump("ledger.align", 0.25)
    rec.bump("ledger.align", 0.25)
    rec.set_value("shm_total_bytes", 1024.0)
    assert rec.counters == []  # cumulative counters are not yet events
    rec.sample_counters(live_blocks=2.0)
    names = {c.name: c.value for c in rec.counters}
    assert names == {
        "live_blocks": 2.0, "ledger.align": 0.5, "shm_total_bytes": 1024.0,
    }
    summary = rec.summary()
    assert summary[("wait", "turnstile_wait")]["count"] == 1


def test_recorder_span_records_error_attribute():
    rec = TraceRecorder()
    with pytest.raises(ValueError):
        with rec.span("align", "stage"):
            raise ValueError("boom")
    assert rec.spans[0].attrs_dict()["error"] == "ValueError"


def test_maybe_span_disabled_is_shared_noop():
    handle = maybe_span(None, "discover", "stage", block=(0, 0), nnz=3)
    assert handle is NULL_SPAN
    with handle as h:
        h.set(anything=1)  # no-op, must not raise


def test_recorder_drain_and_merge_preserve_attribution():
    worker = TraceRecorder(epoch=123.0)
    worker.add_span("discover", "stage", 124.0, 125.0, lane="discover")
    worker.sample_counters(x=1.0)
    spans, counters = worker.drain()
    assert worker.spans == [] and worker.counters == []
    parent = TraceRecorder(epoch=123.0)
    parent.merge(spans, counters)
    assert parent.spans[0].pid == spans[0].pid  # pid baked in at record time
    assert parent.counters[0].name == "x"


def test_active_tracer_defaults_to_none():
    assert current_tracer() is None


# ---------------------------------------------------------------------------
# non-perturbation: traced == untraced, per scheduler
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("overrides", SCHEDULER_OVERRIDES)
def test_tracing_is_non_perturbing_per_scheduler(tiny_seqs, fast_params, overrides):
    untraced = _run(tiny_seqs, fast_params, **overrides)
    traced = _run(tiny_seqs, fast_params, trace=True, **overrides)
    assert untraced.trace is None
    assert traced.trace is not None and len(traced.trace.spans) > 0
    assert_traced_identical(untraced, traced)
    # the run's stage spans are all present
    by_name: dict[str, int] = {}
    for span in traced.trace.spans:
        by_name[span.name] = by_name.get(span.name, 0) + 1
    for stage in ("discover", "prune", "align", "accumulate"):
        assert by_name.get(stage, 0) == 4, f"missing {stage!r} spans: {by_name}"
    assert by_name.get("summa_stage", 0) > 0
    if overrides.get("scheduler") == "threaded":
        assert by_name.get("admission_wait", 0) == 4
    if overrides.get("scheduler") == "process":
        assert by_name.get("admission_wait", 0) == 4
        assert by_name.get("ledger_replay", 0) == 4
        worker_pids = {s.pid for s in traced.trace.spans if s.name == "discover"}
        assert traced.trace.pid not in worker_pids  # discovers ran off-parent


def test_phase_seconds_reported_with_and_without_tracing(tiny_seqs, fast_params):
    result = _run(tiny_seqs, fast_params)
    phases = result.stats.extras["phase_seconds"]
    assert {"input_io", "kmer_matrix", "stage_graph", "output_io"} <= set(phases)
    assert all(v >= 0.0 for v in phases.values())
    # tracing adds phase *spans* on top of the always-on registry timers
    traced = _run(tiny_seqs, fast_params, trace=True)
    phase_spans = {s.name for s in traced.trace.spans if s.category == "phase"}
    assert phase_spans == set(traced.stats.extras["phase_seconds"])


def test_ledger_counter_series_sampled_at_block_boundaries(tiny_seqs, fast_params):
    traced = _run(tiny_seqs, fast_params, trace=True)
    by_name: dict[str, list] = {}
    for sample in traced.trace.counters:
        by_name.setdefault(sample.name, []).append(sample.value)
    assert len(by_name["live_blocks"]) == 4  # one sample per block boundary
    # ledger totals accumulate monotonically across block boundaries, and the
    # last sampled value equals the ledger's own in-graph total for align
    align_series = by_name["ledger.align"]
    assert align_series == sorted(align_series)
    assert align_series[-1] == pytest.approx(
        float(traced.ledger.per_rank("align").sum())
    )


# ---------------------------------------------------------------------------
# export schema
# ---------------------------------------------------------------------------


def _assert_spans_disjoint_or_nested(rows):
    """Intervals sorted by start must close LIFO per (pid, tid)."""
    for (pid, tid), intervals in rows.items():
        intervals.sort(key=lambda iv: (iv[0], -iv[1]))
        stack: list[tuple[float, float]] = []
        for t0, t1 in intervals:
            while stack and t0 >= stack[-1][1]:
                stack.pop()
            if stack:
                assert t1 <= stack[-1][1], (
                    f"span [{t0}, {t1}] straddles [{stack[-1][0]}, "
                    f"{stack[-1][1]}] on row (pid={pid}, tid={tid})"
                )
            stack.append((t0, t1))


def test_chrome_export_schema_and_nesting(tmp_path, tiny_seqs, fast_params):
    trace_dir = tmp_path / "trace"
    result = _run(
        tiny_seqs, fast_params, trace_dir=str(trace_dir),
        pre_blocking=True, preblock_depth=2,
        scheduler="threaded",
    )
    assert result.trace is not None
    document = json.loads((trace_dir / CHROME_NAME).read_text())
    events = document["traceEvents"]
    assert events, "empty trace document"
    rows: dict[tuple[int, int], list] = {}
    complete = counters = metadata = 0
    for event in events:
        assert "ph" in event and "pid" in event and "tid" in event
        if event["ph"] == "X":
            complete += 1
            assert "ts" in event and "dur" in event and event["dur"] >= 0.0
            assert "name" in event and "cat" in event
            rows.setdefault((event["pid"], event["tid"]), []).append(
                (event["ts"], event["ts"] + event["dur"])
            )
        elif event["ph"] == "C":
            counters += 1
            assert "value" in event["args"]
        elif event["ph"] == "M":
            metadata += 1
            assert event["name"] in ("process_name", "thread_name")
    assert complete == len(result.trace.spans)
    assert counters == len(result.trace.counters)
    assert metadata > 0
    _assert_spans_disjoint_or_nested(rows)


def test_jsonl_roundtrip_matches_recorder(tmp_path, tiny_seqs, fast_params):
    trace_dir = tmp_path / "trace"
    result = _run(tiny_seqs, fast_params, trace_dir=str(trace_dir))
    meta, spans, counters = read_jsonl(trace_dir / JSONL_NAME)
    assert meta["schema"] == 1
    assert meta["pid"] == result.trace.pid
    assert len(spans) == len(result.trace.spans)
    assert len(counters) == len(result.trace.counters)
    # relative times: everything recorded after the recorder was built
    assert all(s["t0"] >= 0.0 and s["t1"] >= s["t0"] for s in spans)


def test_failed_run_still_exports_valid_trace(
    tmp_path, tiny_seqs, fast_params, monkeypatch
):
    from repro.core.engine.schedulers import SerialScheduler

    def boom(self, tasks, ctx):
        raise RuntimeError("injected scheduler failure")

    monkeypatch.setattr(SerialScheduler, "run", boom)
    trace_dir = tmp_path / "trace"
    with pytest.raises(RuntimeError, match="injected scheduler failure"):
        PastisPipeline(
            fast_params.replace(num_blocks=4, trace_dir=str(trace_dir))
        ).run(tiny_seqs)
    # both documents exist and parse; the failing phase span carries the error
    document = json.loads((trace_dir / CHROME_NAME).read_text())
    _, spans, _ = read_jsonl(trace_dir / JSONL_NAME)
    assert document["traceEvents"]
    failed = [s for s in spans if s["name"] == "stage_graph"]
    assert failed and failed[0]["attrs"]["error"] == "RuntimeError"
    assert current_tracer() is None  # pipeline teardown deactivated the tracer


# ---------------------------------------------------------------------------
# process-scheduler worker merge (the acceptance-criterion run)
# ---------------------------------------------------------------------------


def test_process_warm_run_merges_spans_from_multiple_workers(
    tmp_path, tiny_seqs, fast_params, monkeypatch
):
    """A traced warm-cache process run produces a Chrome trace with spans
    from ≥ 2 worker pids, cache-replay spans and admission-wait spans —
    while staying bit-identical to the same run untraced."""
    from repro.core.engine.cache import StageCache

    params = fast_params.replace(
        num_blocks=6,
        pre_blocking=True,
        scheduler="process",
        preblock_depth=3,
        cache_dir=str(tmp_path / "cache"),
    )
    PastisPipeline(params).run(tiny_seqs)  # cold: populate the cache

    # slow the per-block cache load slightly so both pool workers get blocks
    # (class-level patch: forked workers inherit it, same pattern as the
    # fault injection in test_engine.py)
    original_load = StageCache.load

    def slow_load(self, coords):
        time_mod.sleep(0.05)
        return original_load(self, coords)

    monkeypatch.setattr(StageCache, "load", slow_load)
    untraced = PastisPipeline(params).run(tiny_seqs, resume=True)
    trace_dir = tmp_path / "trace"
    traced = PastisPipeline(
        params.replace(trace_dir=str(trace_dir))
    ).run(tiny_seqs, resume=True)

    assert traced.stats.extras["cache"]["hits"] == 6
    assert_traced_identical(untraced, traced)

    spans = traced.trace.spans
    worker_pids = {s.pid for s in spans if s.name == "cache_load"}
    assert traced.trace.pid not in worker_pids
    assert len(worker_pids) >= 2, f"expected ≥2 worker pids, got {worker_pids}"
    assert sum(1 for s in spans if s.name == "cache_replay") == 6
    assert sum(1 for s in spans if s.name == "admission_wait") == 6
    # the exported chrome document names both worker processes
    document = json.loads((trace_dir / CHROME_NAME).read_text())
    process_names = {
        event["args"]["name"]
        for event in document["traceEvents"]
        if event["ph"] == "M" and event["name"] == "process_name"
    }
    workers_named = {n for n in process_names if n.startswith("discover-worker")}
    assert len(workers_named) >= 2


def test_sigkilled_process_run_exports_valid_partial_trace(
    tmp_path, small_seqs, fast_params, monkeypatch
):
    """A worker SIGKILL mid-run must still leave parseable trace documents
    (the pipeline's failure-path export)."""
    import os
    import signal
    import threading

    from repro.distsparse.blocked_summa import BlockedSpGemm

    calls = {"n": 0}
    original = BlockedSpGemm.compute_block

    def kamikaze(self, block_row, block_col):
        calls["n"] += 1
        if calls["n"] == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return original(self, block_row, block_col)

    monkeypatch.setattr(BlockedSpGemm, "compute_block", kamikaze)
    trace_dir = tmp_path / "trace"
    params = fast_params.replace(
        num_blocks=6,
        pre_blocking=True,
        scheduler="process",
        preblock_depth=3,
        trace_dir=str(trace_dir),
    )
    outcome: list[BaseException] = []

    def run():
        try:
            PastisPipeline(params).run(small_seqs)
        except BaseException as exc:  # noqa: BLE001 - the assertion target
            outcome.append(exc)

    runner = threading.Thread(target=run)
    runner.start()
    runner.join(timeout=60.0)
    assert not runner.is_alive(), "killed traced run deadlocked in teardown"
    assert len(outcome) == 1 and isinstance(outcome[0], RuntimeError)
    # partial trace: valid JSON in both formats, phases recorded up to death
    document = json.loads((trace_dir / CHROME_NAME).read_text())
    meta, spans, _ = read_jsonl(trace_dir / JSONL_NAME)
    assert meta["schema"] == 1
    assert isinstance(document["traceEvents"], list)
    assert any(s["name"] == "kmer_matrix" for s in spans)
    assert current_tracer() is None


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@pytest.fixture()
def traced_dirs(tmp_path, tiny_seqs, fast_params):
    """Two traced runs (serial / overlapped) for the CLI tests."""
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    _run(tiny_seqs, fast_params, trace_dir=str(dir_a))
    _run(tiny_seqs, fast_params, trace_dir=str(dir_b), pre_blocking=True)
    return dir_a, dir_b


def test_cli_summarize(traced_dirs, capsys):
    dir_a, _ = traced_dirs
    assert trace_cli(["summarize", str(dir_a)]) == 0
    out = capsys.readouterr().out
    assert "discover" in out and "stage" in out and "spans" in out


def test_cli_export_produces_loadable_chrome_trace(traced_dirs, tmp_path, capsys):
    dir_a, _ = traced_dirs
    out_path = tmp_path / "exported.trace.json"
    assert trace_cli(["export", str(dir_a), "-o", str(out_path)]) == 0
    document = json.loads(out_path.read_text())
    assert {e["ph"] for e in document["traceEvents"]} >= {"X", "M"}
    # default output name derives from the source file
    assert trace_cli(["export", str(dir_a)]) == 0
    assert (dir_a / "trace.trace.json").exists()


def test_cli_diff(traced_dirs, capsys):
    dir_a, dir_b = traced_dirs
    assert trace_cli(["diff", str(dir_a), str(dir_b)]) == 0
    out = capsys.readouterr().out
    assert "delta" in out and "discover" in out


def _recorder_with(name: str) -> TraceRecorder:
    rec = TraceRecorder()
    rec.add_span(name, "stage", rec.epoch, rec.epoch + 1.0)
    return rec


def test_failed_trace_overwrite_keeps_previous_trace(tmp_path, monkeypatch):
    """Both documents are written atomically: an overwrite that dies
    before its rename leaves the previous trace readable, with no litter."""
    import os

    write_trace(_recorder_with("first"), tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert before == [CHROME_NAME, JSONL_NAME]

    def failing_replace(src, dst):
        raise OSError("simulated full disk")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="simulated full disk"):
        write_trace(_recorder_with("second"), tmp_path)
    monkeypatch.undo()

    assert sorted(p.name for p in tmp_path.iterdir()) == before
    _, spans, _ = read_jsonl(tmp_path / JSONL_NAME)
    assert [s["name"] for s in spans] == ["first"]
    assert json.loads((tmp_path / CHROME_NAME).read_text())["traceEvents"]


def test_truncated_jsonl_names_file_and_line(tmp_path):
    write_trace(_recorder_with("only"), tmp_path)
    path = tmp_path / JSONL_NAME
    text = path.read_text()
    path.write_text(text[: len(text) - 10])  # cut the last record short
    with pytest.raises(ValueError, match=rf"{JSONL_NAME}:2: malformed trace record"):
        read_jsonl(path)


# ---------------------------------------------------------------------------
# report hoisting and table section (satellite)
# ---------------------------------------------------------------------------


def test_run_report_hoists_process_lane_keys(tiny_seqs, fast_params):
    result = _run(
        tiny_seqs, fast_params,
        pre_blocking=True, scheduler="process",
        preblock_depth=2,
    )
    report = run_report(result.stats)
    lanes = result.stats.extras["process_lanes"]
    assert report["process_lane_count"] == len(lanes)
    assert report["process_lane_blocks"] == 4  # every block went through a lane
    assert report["process_lane_discover_seconds"] == pytest.approx(
        sum(float(lane["discover_seconds"]) for lane in lanes.values())
    )
    # the shm/memory gauges arrive flat through the ordinary extras merge
    assert "shm_peak_block_bytes" in report and "shm_total_bytes" in report
    assert "peak_live_blocks" in report

    table = result.stats.as_table()
    assert "Process lanes" in table
    assert "Discover workers" in table
    assert "Shm peak block / total" in table


def test_run_report_without_process_extras_has_no_lane_keys(tiny_seqs, fast_params):
    result = _run(tiny_seqs, fast_params)
    report = run_report(result.stats)
    assert "process_lane_count" not in report
    assert "process_lane_blocks" not in report
    assert "Process lanes" not in result.stats.as_table()


def test_trace_params_validation():
    with pytest.raises(ValueError, match="trace_dir"):
        PastisParams(trace_dir="   ")
    params = PastisParams(trace_dir="/tmp/somewhere")
    assert params.trace_enabled
    assert PastisParams(trace=True).trace_enabled
    assert not PastisParams().trace_enabled
