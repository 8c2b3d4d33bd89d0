"""Pieces shared by every workload: seeds, worlds, reports, CPU time, memory."""

from __future__ import annotations

import gc
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from .stats import ErrorCount


def derive_seeds(seed: int, salt: int, count: int) -> list[int]:
    """``count`` independent world seeds from the run seed (``salt`` per use)."""
    state = np.random.SeedSequence([int(seed), int(salt)]).generate_state(count)
    return [int(s) for s in state]


def make_world(seed: int, params: dict):
    """A seeded Qatar-Living-like world (the paper's workload generator)."""
    from repro.datasets import generate_qatar_living_like

    return generate_qatar_living_like(seed, **params)


def cpu_timed(fn, *args, **kwargs):
    """``(result, wall seconds, CPU seconds of this process)`` of one call."""
    wall, cpu = time.perf_counter(), time.process_time()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - wall, time.process_time() - cpu


_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def process_cpu_s(pid: int) -> float:
    """CPU seconds (user + system) another process has used so far.

    Read from ``/proc/<pid>/stat``, which counts every thread the
    process ever ran, ended handler threads included, in clock ticks.
    """
    with open(f"/proc/{pid}/stat", "rb") as proc:
        stat = proc.read()
    # Fields after the parenthesised command name; utime and stime are
    # the 14th and 15th fields of the whole line.
    fields = stat[stat.rindex(b")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def host_steal_s() -> float:
    """CPU seconds the hypervisor has run other guests on this VM's CPUs.

    Linux guests with paravirtual steal accounting keep it out of task
    time, so the CPU seconds this benchmark reports exclude it; the
    figure is printed to show how contended the host was.
    """
    with open("/proc/stat") as stat:
        fields = stat.readline().split()
    return int(fields[8]) / _CLOCK_TICKS if len(fields) > 8 else 0.0


def freeze_inputs() -> None:
    """Move every object alive now (the generated inputs) out of GC traversals.

    The inputs belong to the benchmark, not the program; without this,
    full collections during timed work would walk all of them.
    """
    gc.collect()
    gc.freeze()


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Report:
    """What one benchmark run found.

    ``e2e`` holds the end-to-end metrics (tracing off); ``layers`` the
    per-layer metrics of the traced pass, when there was one.
    ``problems`` lists trace-side failures (coverage under 95%, traced
    outputs differing from untraced ones); they make the run incorrect.
    """

    errors: ErrorCount
    e2e: dict = field(default_factory=dict)
    layers: dict | None = None
    info: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return (
            self.errors.failed == 0
            and not self.errors.failed_checks
            and not self.problems
        )
