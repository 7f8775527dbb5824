"""Calibration feedback loop: measured defaults round-trip through config.

``bench_auto_threshold.py --write-default`` persists the measured best
``auto_compression_threshold`` crossover via
:func:`repro.config.write_calibration`; :data:`repro.config.DEFAULTS` (and
therefore ``PastisParams``) rebuilds from it at import.  These tests pin the
round-trip and the validation that keeps a corrupt calibration from
silently steering every run.
"""

from __future__ import annotations

import json

import pytest

from repro import config
from repro.core.params import PastisParams
from repro.sparse.kernels import AUTO_COMPRESSION_THRESHOLD


def test_written_calibration_round_trips(tmp_path):
    path = tmp_path / "calibration.json"
    written = config.write_calibration({"auto_compression_threshold": 3.25}, path)
    assert written == path
    assert config.load_calibration(path) == {"auto_compression_threshold": 3.25}
    defaults = config.calibrated_defaults(path)
    assert defaults.auto_compression_threshold == 3.25
    # uncalibrated fields keep their shipped values
    assert defaults.spgemm_backend == config.ReproConfig().spgemm_backend


def test_missing_calibration_uses_registry_constant(tmp_path):
    defaults = config.calibrated_defaults(tmp_path / "nope.json")
    assert defaults.auto_compression_threshold == AUTO_COMPRESSION_THRESHOLD


def test_params_default_follows_defaults_singleton():
    assert PastisParams().auto_compression_threshold == (
        config.DEFAULTS.auto_compression_threshold
    )


def test_unknown_calibration_field_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown calibration field"):
        config.write_calibration({"gap_open": 5}, tmp_path / "c.json")
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"mystery_knob": 1.0}))
    with pytest.raises(ValueError, match="unknown calibration field"):
        config.load_calibration(path)


def test_invalid_calibration_value_rejected(tmp_path):
    path = tmp_path / "c.json"
    with pytest.raises(ValueError, match="invalid value"):
        config.write_calibration({"auto_compression_threshold": 0.0}, path)
    path.write_text(json.dumps({"auto_compression_threshold": -2.0}))
    with pytest.raises(ValueError, match="invalid value"):
        config.load_calibration(path)
    # JSON booleans are ints in Python; they must not sneak in as 1.0/0.0
    path.write_text(json.dumps({"auto_compression_threshold": True}))
    with pytest.raises(ValueError, match="invalid value"):
        config.load_calibration(path)
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ValueError, match="JSON object"):
        config.load_calibration(path)


def test_calibrated_threshold_reaches_pipeline_params(tmp_path):
    """The full feedback path: write -> load -> ReproConfig -> PastisParams."""
    path = tmp_path / "calibration.json"
    config.write_calibration({"auto_compression_threshold": 1.75}, path)
    defaults = config.calibrated_defaults(path)
    params = PastisParams(auto_compression_threshold=defaults.auto_compression_threshold)
    assert params.auto_compression_threshold == 1.75


def test_failed_calibration_write_leaves_no_tmp_litter(tmp_path, monkeypatch):
    """Regression: a failure between writing the temp file and renaming it
    (full disk, permission error) used to strand ``calibration.json.tmp``
    next to the target; the hardened writer unlinks it before re-raising."""
    import os

    path = tmp_path / "calibration.json"
    config.write_calibration({"auto_compression_threshold": 2.0}, path)

    def failing_replace(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="simulated rename failure"):
        config.write_calibration({"auto_compression_threshold": 9.0}, path)
    monkeypatch.undo()

    assert list(tmp_path.iterdir()) == [path]  # no .tmp stranded
    # the previous contents survived the failed overwrite intact
    assert config.load_calibration(path) == {"auto_compression_threshold": 2.0}


def test_atomic_write_bytes_round_trip_and_cleanup(tmp_path, monkeypatch):
    import os

    target = tmp_path / "blob.bin"
    assert config.atomic_write_bytes(target, b"payload") == target
    assert target.read_bytes() == b"payload"
    assert list(tmp_path.iterdir()) == [target]

    monkeypatch.setattr(os, "replace", lambda s, d: (_ for _ in ()).throw(OSError("boom")))
    with pytest.raises(OSError, match="boom"):
        config.atomic_write_bytes(target, b"new payload")
    assert target.read_bytes() == b"payload"
    assert list(tmp_path.iterdir()) == [target]


def _write_repeatedly(path, payload: bytes, times: int) -> None:
    for _ in range(times):
        config.atomic_write_bytes(path, payload)


def test_concurrent_writers_of_one_path_never_collide(tmp_path):
    """Two processes overwriting one path: every write succeeds, no temp
    file is left behind, and the survivor is exactly one writer's payload
    (writers sharing one temp name would rename away or interleave each
    other's partial files)."""
    import multiprocessing

    path = tmp_path / "entry.bin"
    payloads = [bytes([tag]) * (1 << 18) for tag in (1, 2)]
    ctx = multiprocessing.get_context("spawn")
    writers = [
        ctx.Process(target=_write_repeatedly, args=(path, payload, 100))
        for payload in payloads
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=120)
    assert [writer.exitcode for writer in writers] == [0, 0]
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() in payloads
