"""Atomic file writes shared by every on-disk writer of the package.

The stage cache, the run registry, the serving index and the trace writers
all persist through :func:`atomic_write_bytes` / :func:`atomic_write_text`,
so no reader ever observes a partially written file.  Run parameters live
on :class:`repro.core.params.PastisParams`.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (temp file + rename).

    Readers never observe a partially written file: the payload lands in a
    sibling ``<name>.<random>.tmp`` first and is renamed over the target
    only once fully written.  Every writer gets its own temp file, so
    concurrent writers of one path (two runs sharing a ``cache_dir``, two
    index builds into one directory) never write into or rename away each
    other's temp file: the last rename wins with one complete payload.  If
    anything fails after the temp file exists — a full disk mid-write, a
    failed ``os.replace`` — the temp file is unlinked before the error
    propagates, so a crash cannot strand ``.tmp`` litter next to the real
    file.  Shared by the stage cache, the run registry, the serving index
    and the trace writers.
    """
    p = Path(path)
    tmp = p.with_name(f"{p.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as handle:
            handle.write(data)
        os.replace(tmp, p)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return p


def atomic_write_text(path: str | Path, text: str) -> Path:
    """UTF-8 text variant of :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode("utf-8"))
