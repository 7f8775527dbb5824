#!/usr/bin/env python
"""Documentation reference checker — keeps README/docs honest.

Four classes of rot this catches, the first three run over ``README.md``
and ``docs/``:

* **relative links**: every ``[text](path)`` markdown link that isn't an
  absolute URL must resolve to a file or directory in the repository;
* **dotted references**: every ```` `repro.x.y` ```` token must import —
  either as a module, or as an attribute reachable from its longest
  importable module prefix (so ``repro.serve.QueryBatcher`` and
  ``repro.io.report.run_report`` both count);
* **module commands**: every ``python -m repro.x`` command must name an
  importable module;
* **documentation files named in code**: every ``NAME.md`` mentioned in a
  ``.py`` file under ``src/``, ``benchmarks/`` or ``examples/`` must exist
  at the repository root or under ``docs/``.

Used by CI (``python tools/check_docs.py``) and by ``tests/test_docs.py``.
Exits non-zero listing every broken reference.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: the documentation set under contract
DOC_FILES = ("README.md", "docs/architecture.md", "docs/serving.md")

_LINK_RE = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
_DOTTED_RE = re.compile(r"`(repro(?:\.\w+)+)`")
_MODULE_CMD_RE = re.compile(r"python -m (repro(?:\.\w+)*)")
_MD_NAME_RE = re.compile(r"\b([\w-]+\.md)\b")

#: Python trees whose comments and docstrings may point at documentation
SOURCE_DIRS = ("src", "benchmarks", "examples")


def _display(path: Path) -> str:
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def iter_relative_links(text: str):
    """Relative link targets in markdown (URLs and pure anchors skipped)."""
    for match in _LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target.split("#", 1)[0]


def check_links(path: Path) -> list[str]:
    """Broken relative links in one markdown file."""
    errors = []
    for target in iter_relative_links(path.read_text()):
        if not (path.parent / target).exists():
            errors.append(f"{_display(path)}: broken link -> {target}")
    return errors


def resolve_dotted(ref: str) -> bool:
    """True when ``ref`` is an importable module or a reachable attribute."""
    parts = ref.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            continue
        try:
            for attr in parts[split:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def check_dotted_refs(path: Path) -> list[str]:
    """Dotted ``repro.*`` references that no longer import."""
    errors = []
    text = path.read_text()
    for ref in sorted({*_DOTTED_RE.findall(text), *_MODULE_CMD_RE.findall(text)}):
        if not resolve_dotted(ref):
            errors.append(f"{_display(path)}: unresolvable reference -> {ref}")
    return errors


def check_file(path: Path) -> list[str]:
    return check_links(path) + check_dotted_refs(path)


def check_md_mentions(root: Path = REPO_ROOT) -> list[str]:
    """``NAME.md`` files named in Python sources under ``root`` that exist
    neither at ``root`` nor under ``root/docs``."""
    errors = []
    for directory in SOURCE_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                for name in _MD_NAME_RE.findall(line):
                    if not ((root / name).exists() or (root / "docs" / name).exists()):
                        errors.append(
                            f"{_display(path)}:{lineno}: names a missing document -> {name}"
                        )
    return errors


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    errors: list[str] = []
    for name in DOC_FILES:
        path = REPO_ROOT / name
        if not path.exists():
            errors.append(f"missing documentation file: {name}")
            continue
        errors.extend(check_file(path))
    errors.extend(check_md_mentions())
    if errors:
        print("\n".join(errors))
        print(f"\n{len(errors)} broken documentation reference(s)")
        return 1
    print(
        f"docs OK: {len(DOC_FILES)} files, all links and repro.* references "
        "resolve, every .md named in code exists"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
