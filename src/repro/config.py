"""Global configuration defaults for the PASTIS reproduction.

The values here mirror the program parameters of the paper's production run
(Table IV) and the system parameters of Summit used throughout the
evaluation.  Individual runs override them through
:class:`repro.core.params.PastisParams` and the hardware specs in
:mod:`repro.hardware`.
"""

from __future__ import annotations

import json
import os
import uuid
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from .sparse.kernels import AUTO_COMPRESSION_THRESHOLD, DEFAULT_OVERLAP_KERNEL


@dataclass(frozen=True)
class ReproConfig:
    """Package-wide defaults.

    Attributes
    ----------
    kmer_length:
        k-mer length used for seeding (paper: 6).
    gap_open:
        Affine gap-open penalty (paper: 11).
    gap_extend:
        Affine gap-extension penalty (paper: 2).
    common_kmer_threshold:
        Minimum number of shared k-mers for a candidate pair to be aligned
        (paper: 2).
    ani_threshold:
        Minimum average nucleotide/aminoacid identity for a pair to enter the
        similarity graph (paper: 0.30).
    coverage_threshold:
        Minimum coverage of the shorter sequence (paper: 0.70).
    default_blocking:
        Default blocking factor (paper production run: 20x20; strong scaling
        experiments use 8x8).
    spgemm_backend:
        Default SpGEMM kernel for the pipeline's overlap-semiring multiply,
        by registry name (``"expand"``, ``"gustavson"``, or ``"auto"``).
        Mirrors :data:`repro.sparse.kernels.DEFAULT_OVERLAP_KERNEL` — the
        registry is the single source of truth, so the two can never
        disagree.  ``"gustavson"`` since the ``bench_kernels.py --smoke``
        head-to-head confirmed bit-identical results with bounded
        intermediate memory at the overlap matrix's high compression
        factors; generic consumers calling ``resolve_kernel(None)`` still
        get :data:`repro.sparse.kernels.DEFAULT_KERNEL` (``"expand"``).
        This value seeds ``PastisParams.spgemm_backend``, which individual
        runs override.
    auto_compression_threshold:
        Predicted-compression-factor crossover of the ``"auto"`` SpGEMM
        backend's dispatch.  The shipped default is the registry constant
        :data:`repro.sparse.kernels.AUTO_COMPRESSION_THRESHOLD`; a
        *measured* value can be fed back by
        ``benchmarks/bench_auto_threshold.py --write-default``, which
        persists the best sweep crossover via :func:`write_calibration` so
        the singleton (and therefore ``PastisParams``) picks it up on the
        next import.
    cache_dir:
        Default directory for the content-hashed stage cache
        (:mod:`repro.core.engine.cache`).  ``None`` (the shipped default)
        disables caching; runs opt in through ``PastisParams.cache_dir``,
        which this value seeds.
    seed:
        Default RNG seed used by synthetic data generators.
    """

    kmer_length: int = 6
    gap_open: int = 11
    gap_extend: int = 2
    common_kmer_threshold: int = 2
    ani_threshold: float = 0.30
    coverage_threshold: float = 0.70
    default_blocking: tuple[int, int] = field(default=(8, 8))
    spgemm_backend: str = DEFAULT_OVERLAP_KERNEL
    auto_compression_threshold: float = AUTO_COMPRESSION_THRESHOLD
    cache_dir: str | None = None
    seed: int = 0


#: Fields a measured calibration may override, with their validators.
CALIBRATABLE_FIELDS: dict[str, object] = {
    "auto_compression_threshold": lambda v: (
        isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0
    ),
}

#: Default location of the persisted calibration (next to this module, so a
#: written calibration survives as part of the installed package).
CALIBRATION_PATH = Path(__file__).with_name("calibration.json")


def _validate_calibration(values: dict) -> None:
    """Shared field/value validation for reads and writes (one rule set, so a
    value that writes always loads and vice versa)."""
    for key, value in values.items():
        validator = CALIBRATABLE_FIELDS.get(key)
        if validator is None:
            raise ValueError(
                f"unknown calibration field {key!r}; "
                f"calibratable: {sorted(CALIBRATABLE_FIELDS)}"
            )
        if not validator(value):
            raise ValueError(f"calibration field {key!r} has invalid value {value!r}")


def load_calibration(path: str | Path | None = None) -> dict:
    """Read persisted calibration overrides ({} when none has been written).

    Raises ``ValueError`` for unknown fields, out-of-range values or
    unparseable JSON, so a corrupted calibration file fails loudly instead
    of silently steering every subsequent run.
    """
    p = CALIBRATION_PATH if path is None else Path(path)
    if not p.exists():
        return {}
    data = json.loads(p.read_text())  # JSONDecodeError is a ValueError
    if not isinstance(data, dict):
        raise ValueError(f"calibration file {p} must hold a JSON object")
    _validate_calibration(data)
    return {key: float(value) for key, value in data.items()}


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
    file.  Shared by :func:`write_calibration`, the stage cache, the run
    registry, the serving index and the trace writers.
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


def write_calibration(values: dict, path: str | Path | None = None) -> Path:
    """Persist measured calibration overrides; returns the written path.

    ``values`` must only contain :data:`CALIBRATABLE_FIELDS`; the write is
    validated through the same rules :func:`load_calibration` applies, so a
    written calibration always round-trips.  The write is atomic (temp file
    + rename via :func:`atomic_write_text`), so a killed benchmark can never
    leave a truncated file — or a stranded ``.tmp`` — behind.
    """
    _validate_calibration(values)
    p = CALIBRATION_PATH if path is None else Path(path)
    payload = json.dumps({k: float(v) for k, v in values.items()}, indent=2) + "\n"
    return atomic_write_text(p, payload)


def calibrated_defaults(path: str | Path | None = None) -> ReproConfig:
    """Build the package defaults with any persisted calibration applied."""
    return ReproConfig(**load_calibration(path))


def _import_time_defaults() -> ReproConfig:
    """The singleton's construction: never let a bad calibration file make
    the package unimportable (that would also brick the tool that could
    rewrite it) — warn loudly and fall back to the shipped defaults."""
    try:
        return calibrated_defaults()
    except (ValueError, OSError) as exc:
        warnings.warn(
            f"ignoring unreadable calibration {CALIBRATION_PATH}: {exc}; "
            "using shipped defaults (rewrite it with "
            "`python benchmarks/bench_auto_threshold.py --write-default` "
            "or delete the file)",
            RuntimeWarning,
            stacklevel=2,
        )
        return ReproConfig()


#: Module-level singleton with the paper's default parameters, overlaid with
#: any measured calibration previously written by
#: ``bench_auto_threshold.py --write-default``.
DEFAULTS = _import_time_defaults()
