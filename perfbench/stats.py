"""Summary statistics and failure accounting for benchmark runs."""

from __future__ import annotations

import math
import statistics
import threading
from dataclasses import dataclass

#: Percentiles a timing may report beside its median, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    # The tolerance keeps float noise (99.9 / 100 * 10000) off the ceiling.
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def nearest_rank(samples, p: float) -> float:
    """The nearest-rank ``p``-th percentile of ``samples`` (non-empty)."""
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), p) - 1]


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``p``-th percentile."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ten samples beyond it.

    ``None`` when even the median has fewer than ten samples beyond it
    (fewer than 20 samples): such a timing reports its median only.
    """
    best = None
    for p in PERCENTILE_LADDER:
        if beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


@dataclass
class Timing:
    """A named timing: its samples, median, and tail by the percentile rule."""

    name: str
    unit: str
    samples: list[float]

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    def describe(self) -> str:
        n = len(self.samples)
        text = f"{self.name} p50={self.median:.6g} {self.unit}"
        p = tail_percentile(n)
        if p is not None and p > 50.0:
            text += f" p{p:g}={nearest_rank(self.samples, p):.6g} {self.unit}"
        return text + f" (n={n})"


class ErrorCount:
    """Operations attempted and the failures behind ``error_rate``.

    ``error_rate = (failed + retried + failed checks) / attempted``: a
    request answered non-2xx or not at all is failed, each retry the
    client sent is counted once more, and so is each output check that
    did not hold.  Safe to share between client threads.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.retried = 0
        self.checks = 0
        self.failed_checks: list[str] = []

    def op(self, ok: bool) -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1

    def retry(self) -> None:
        with self._lock:
            self.retried += 1

    def check(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.checks += 1
            if not ok:
                self.failed_checks.append(what)
        return ok

    @property
    def error_rate(self) -> float:
        bad = self.failed + self.retried + len(self.failed_checks)
        return bad / self.attempted if self.attempted else 1.0

    def describe(self) -> str:
        return (
            f"error_rate={self.error_rate:.6g} = ({self.failed} failed + "
            f"{self.retried} retried + {len(self.failed_checks)} failed checks)"
            f" / {self.attempted} operations attempted"
        )
