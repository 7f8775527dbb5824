"""Atomic writes: the one persistence helper every on-disk writer shares."""

from __future__ import annotations

import pytest

from repro import config


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
