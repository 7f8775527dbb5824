"""Wall-clock timers for pipeline components."""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Timer:
    """A context-manager stopwatch.

    >>> t = Timer()
    >>> with t:
    ...     _ = sum(range(100))
    >>> t.elapsed >= 0.0
    True
    """

    elapsed: float = 0.0
    _start: float | None = field(default=None, repr=False)

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self._start is not None:
            self.elapsed += time.perf_counter() - self._start
            self._start = None

    def reset(self) -> None:
        """Zero the accumulated time."""
        self.elapsed = 0.0
        self._start = None


def time_call(fn, *args, **kwargs):
    """Run ``fn(*args, **kwargs)`` and return ``(result, elapsed_seconds)``.

    The wall-clock measurement primitive of the measured-clock executor:
    stage implementations wrap their work in one call so schedulers receive
    real seconds through the same interface the modeled clock uses.
    """
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start
