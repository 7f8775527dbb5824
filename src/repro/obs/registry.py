"""Persistent local run registry: one atomic ``run.json`` per run.

Layout under the registry root (``PastisParams.run_registry``)::

    <root>/runs/<run_id>.json

There is deliberately no index file: the directory *is* the index
(run ids sort chronologically), so a SIGKILL mid-write can never leave
the registry inconsistent — each manifest lands via the same
temp-file + ``os.replace`` dance the stage cache uses, and a killed run
leaves either a complete manifest or none.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..config import atomic_write_text
from .manifest import RUN_SCHEMA_VERSION

__all__ = ["RunRegistry"]


class RunRegistry:
    """Append-only store of run manifests under one directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.runs_dir = self.root / "runs"

    # ---- writing ---------------------------------------------------------

    def record(self, manifest: dict[str, Any]) -> Path:
        """Atomically persist one manifest; returns its path."""
        run_id = manifest["run_id"]
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        path = self.runs_dir / f"{run_id}.json"
        atomic_write_text(path, json.dumps(_jsonable(manifest), indent=2, sort_keys=True))
        return path

    # ---- reading ---------------------------------------------------------

    def run_ids(self) -> list[str]:
        """All stored run ids, oldest first (ids sort chronologically)."""
        if not self.runs_dir.is_dir():
            return []
        return sorted(p.stem for p in self.runs_dir.glob("*.json"))

    def load(self, run_id: str) -> dict[str, Any]:
        path = self.runs_dir / f"{run_id}.json"
        try:
            manifest = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed run manifest: {exc}") from exc
        if not isinstance(manifest, dict):
            raise ValueError(
                f"{path}: malformed run manifest: expected a JSON object, "
                f"got {type(manifest).__name__}"
            )
        schema = manifest.get("schema")
        if not isinstance(schema, int) or schema > RUN_SCHEMA_VERSION:
            raise ValueError(
                f"run {run_id}: manifest schema {schema!r} is newer than "
                f"this reader (supports <= {RUN_SCHEMA_VERSION})"
            )
        return manifest

    def runs(self) -> list[dict[str, Any]]:
        return [self.load(run_id) for run_id in self.run_ids()]

    def latest(self) -> dict[str, Any] | None:
        ids = self.run_ids()
        return self.load(ids[-1]) if ids else None

    def resolve(self, ref: str) -> dict[str, Any]:
        """Load a run by id, unique id prefix, or the literal ``latest``."""
        ids = self.run_ids()
        if ref == "latest":
            if not ids:
                raise KeyError(f"registry {self.root} is empty")
            return self.load(ids[-1])
        if ref in ids:
            return self.load(ref)
        matches = [run_id for run_id in ids if run_id.startswith(ref)]
        if len(matches) == 1:
            return self.load(matches[0])
        if matches:
            raise KeyError(f"run ref {ref!r} is ambiguous: {matches}")
        raise KeyError(f"no run matching {ref!r} in {self.root}")

    def baselines_for(
        self, manifest: dict[str, Any], status: str = "ok"
    ) -> list[dict[str, Any]]:
        """Stored runs comparable to *manifest*: same host fingerprint and
        same ``config_key``, excluding the run itself."""
        host = (manifest.get("host") or {}).get("fingerprint")
        key = manifest.get("config_key")
        out = []
        for run in self.runs():
            if run.get("run_id") == manifest.get("run_id"):
                continue
            if status is not None and run.get("status") != status:
                continue
            if host and (run.get("host") or {}).get("fingerprint") != host:
                continue
            if key and run.get("config_key") != key:
                continue
            out.append(run)
        return out


def _jsonable(value: Any) -> Any:
    """Minimal numpy-safe conversion (mirrors ``repro.io.report._jsonable``
    without importing the report stack into the registry)."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()
        except (AttributeError, ValueError):
            return value
    return value
