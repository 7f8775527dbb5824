"""Measurement utilities: timers, rate counters, imbalance, scaling efficiency.

These implement the three reporting mechanisms of §VII of the paper: wall
timers per component, alignments-per-second over the whole run, and cell
updates per second (CUPS) over the alignment kernel time, plus the
min/avg/max load-imbalance and the parallel-efficiency calculations used in
the figures.
"""

from .timers import Timer, time_call
from .counters import RateCounters, tcups, format_rate
from .imbalance import imbalance_stats, imbalance_percent
from .efficiency import speedup, parallel_efficiency, weak_scaling_efficiency
from .memory import MemoryTracker

__all__ = [
    "Timer",
    "time_call",
    "RateCounters",
    "tcups",
    "format_rate",
    "imbalance_stats",
    "imbalance_percent",
    "speedup",
    "parallel_efficiency",
    "weak_scaling_efficiency",
    "MemoryTracker",
]
