"""Arithmetic and /proc readers shared by every workload driver.

Nothing here touches ``repro``: percentiles, slice medians, ladder
rung deltas and the process-accounting readers are plain functions so
``run.py --selftest`` can check them on known inputs.
"""

from __future__ import annotations

import os
import statistics
from typing import Iterable, Optional, Sequence

NS = 1_000_000_000


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


def quartiles(samples: Sequence[float]) -> tuple[float, float]:
    """First and third quartile as ``statistics.quantiles(n=4)`` gives
    them (the rule the benchmark contract uses for its spread)."""
    if len(samples) < 2:
        value = float(samples[0])
        return value, value
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return float(q1), float(q3)


def spread(samples: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(samples)
    mid = median(samples)
    return (q3 - q1) / mid if mid else 0.0


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (``fraction`` in [0, 1])."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    index = min(len(ordered) - 1,
                max(0, round(fraction * (len(ordered) - 1))))
    return float(ordered[index])


LATE_LIMIT_MS = 5.0      # a chunk sent later than this is "late"
LATE_SHARE = 0.05        # share of late chunks that voids a slice


def time_slices(samples: Iterable[tuple[float, float]],
                slice_seconds: float,
                min_samples: int = 100) -> list[tuple[float, float, list]]:
    """Cut ``(time_s, value)`` samples into consecutive time slices
    ``(start_s, end_s, values)``.  A slice with fewer than
    ``min_samples`` samples is merged into the next one (the last one
    into the previous), so a percentile of a slice rests on at least
    that many — or on all there are."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples to slice")
    slices: list[list] = [[ordered[0][0], 0.0, []]]
    edge = ordered[0][0] + slice_seconds
    for stamp, value in ordered:
        if stamp >= edge and len(slices[-1][2]) >= min_samples:
            slices[-1][1] = stamp
            slices.append([stamp, 0.0, []])
            while stamp >= edge:
                edge += slice_seconds
        slices[-1][2].append(value)
    if len(slices) > 1 and len(slices[-1][2]) < min_samples:
        tail = slices.pop()
        slices[-1][2].extend(tail[2])
    slices[-1][1] = float("inf")
    return [tuple(row) for row in slices]


def punctual(slices: Sequence[tuple[Sequence[float], Sequence[float]]]
             ) -> tuple[list, int]:
    """``(values, generator lateness ms per chunk)`` per slice → the
    value lists of the slices whose generator kept its schedule, and
    how many were voided.  A slice is voided when more than
    ``LATE_SHARE`` of its chunks were sent more than ``LATE_LIMIT_MS``
    late: a latency measured while the generator itself ran late says
    nothing about the system."""
    kept = [list(values) for values, late_ms in slices
            if sum(1 for late in late_ms if late > LATE_LIMIT_MS)
            <= LATE_SHARE * len(late_ms)]
    return kept, len(slices) - len(kept)


def rung_deltas(totals: Sequence[tuple[str, float]]) -> dict[str, float]:
    """Cumulative ladder → per-rung self cost: the first rung keeps its
    total, every later rung gets its total minus the rung below (signed:
    a rung cheaper than the one below it reads negative)."""
    deltas: dict[str, float] = {}
    below = 0.0
    for name, total in totals:
        deltas[name] = total - below
        below = total
    return deltas


# -- /proc readers -----------------------------------------------------------

def parse_stat_cpu_ticks(stat_line: str) -> int:
    """utime + stime (clock ticks) from one ``/proc/<pid>/stat`` line.
    The command name may contain spaces and parentheses, so fields are
    counted from the *last* ``)``."""
    fields = stat_line[stat_line.rindex(")") + 2:].split()
    return int(fields[11]) + int(fields[12])  # fields 14 and 15 overall


def proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        ticks = parse_stat_cpu_ticks(handle.read())
    return ticks / os.sysconf("SC_CLK_TCK")


def parse_status_kb(status_text: str, key: str) -> Optional[int]:
    """``VmHWM`` / ``VmRSS`` (kB) from ``/proc/<pid>/status`` text."""
    prefix = key + ":"
    for line in status_text.splitlines():
        if line.startswith(prefix):
            return int(line.split()[1])
    return None


def proc_status_mb(pid: int, key: str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        value = parse_status_kb(handle.read(), key)
    if value is None:
        raise RuntimeError(f"/proc/{pid}/status has no {key}")
    return value / 1024.0


def pin_to_cpu(pid: int, cpu: Optional[int]) -> None:
    """Pin ``pid`` (0 = this process) to one CPU; no-op without one."""
    if cpu is not None:
        os.sched_setaffinity(pid, {cpu})


def cpu_plan() -> tuple[Optional[int], Optional[int]]:
    """(generator CPU, system-under-test CPU): two different CPUs when
    the affinity mask has at least two, otherwise no pinning at all."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        return cpus[0], cpus[1]
    return None, None


# -- what one round reports ---------------------------------------------------

class Round:
    """The samples one round hands to the run: every workload driver
    fills the same record, so the run-level medians are computed once.

    ``delivery_p50_ms``/``delivery_p90_ms`` hold the open-loop delivery
    percentiles, one sample per time slice (served) or one per round
    (in-process); ``layer`` the round's per-layer readings, keyed by
    metric name."""

    def __init__(self) -> None:
        self.valid = True              # most slices kept their schedule
        self.setup_s = 0.0
        self.recovery_s = 0.0
        self.events_per_s: list[float] = []
        self.delivery_p50_ms: list[float] = []
        self.delivery_p90_ms: list[float] = []
        self.churn_per_s: list[float] = []
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.layer: dict[str, float] = {}

    def fail(self, count: int, what: str) -> None:
        if count > 0:
            self.failed += count
            self.problems.append(f"{what} (x{count})")


def sequence_mismatches(got: Sequence, expected: Sequence) -> int:
    """Failed operations between a delivered and an expected sequence:
    every position that differs plus every missing or surplus item."""
    differing = sum(1 for a, b in zip(got, expected) if a != b)
    return differing + abs(len(got) - len(expected))
