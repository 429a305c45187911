"""Small statistics the benchmark reports, and its memory sampler."""

from __future__ import annotations

import math
import os
import resource
import threading
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: Seconds between two samples of the process tree's memory.
MEMORY_SAMPLE_S = 0.02


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped child processes."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def _children(pid: int) -> Iterable[int]:
    """Direct children of ``pid``, whichever of its threads forked them."""
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return []
    children = []
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children.extend(int(child) for child in handle.read().split())
        except OSError:
            pass
    return children


def _pss_kib(pid: int) -> int:
    """Proportional set size of ``pid`` in KiB (0 once it has exited).

    Pages a forked worker still shares with its parent are split between
    them, so the sum over a process tree counts each page once."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def tree_pss_kib(pid: int) -> int:
    """Summed proportional set size of ``pid`` and all its descendants."""
    total, pending = 0, [pid]
    while pending:
        current = pending.pop()
        total += _pss_kib(current)
        pending.extend(_children(current))
    return total


class PeakMemory:
    """Peak summed PSS of this process and its descendants while the
    sampler runs, sampled every ``interval_s`` on a daemon thread::

        with PeakMemory() as peak:
            ...
        peak.mb
    """

    def __init__(self, interval_s: float = MEMORY_SAMPLE_S):
        self.interval_s = interval_s
        self.peak_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        pid = os.getpid()
        while True:
            self.peak_kib = max(self.peak_kib, tree_pss_kib(pid))
            if self._stop.wait(self.interval_s):
                return

    def __enter__(self) -> "PeakMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak_kib = max(self.peak_kib, tree_pss_kib(os.getpid()))

    @property
    def mb(self) -> float:
        return self.peak_kib / 1024.0


@dataclass(frozen=True)
class Tail:
    """The highest whole percentile with enough samples beyond it."""

    percentile: int
    value: float
    n_samples: int
    n_beyond: int


def tail_percentile(values: Sequence[float],
                    min_beyond: int = TAIL_MIN_BEYOND) -> Optional[Tail]:
    """The highest whole percentile ``p`` whose nearest-rank value has at
    least ``min_beyond`` samples above its rank, or ``None`` when there
    are too few samples for any.

    With ``n`` samples the nearest rank of ``p`` is ``ceil(p * n / 100)``
    and ``n - rank`` samples lie beyond it, so ``p`` is the largest whole
    number with ``ceil(p * n / 100) <= n - min_beyond``.
    """
    n = len(values)
    if n <= min_beyond:
        return None
    percentile = (100 * (n - min_beyond)) // n
    rank = math.ceil(percentile * n / 100)
    if rank < 1:
        return None
    ordered = sorted(values)
    return Tail(percentile=percentile, value=ordered[rank - 1],
                n_samples=n, n_beyond=n - rank)
