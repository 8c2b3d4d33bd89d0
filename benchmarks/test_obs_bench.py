"""Observability spine: exactness and overhead gates (DESIGN.md §13).

Three claims are pinned here:

1. **Exactness** — a DATE run with the registry enabled and a trace
   active returns bit-identical results to an uninstrumented run
   (telemetry observes, never feeds back).
2. **Disabled overhead ≤ 2%** — with the registry off, the hot loop
   pays only dead ``telemetry is None`` branches; timed against the
   same loop with the telemetry factory stubbed out entirely.
3. **Enabled overhead ≤ 5%** — full metrics recording stays within
   budget on the benchmark-scale DATE run.

The overhead gates time hardware-sensitive ratios, so CI excludes them
(``-k "not overhead"``) the same way it excludes the oracle-vs-engine
speedup gate; they are acceptance criteria for `scripts/export_bench.py`
runs on quiet machines.  Every test here lands in ``BENCH_obs.json`` via
the session trajectory hook.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro import DATE, DateConfig
from repro.core import DatasetIndex
from repro.core import date as date_mod
from repro.datasets import generate_qatar_living_like
from repro.obs import (
    NULL,
    MetricsRegistry,
    TraceWriter,
    render_prometheus,
    set_registry,
    trace_run,
)

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED


@pytest.fixture(scope="module")
def bench_dataset():
    return generate_qatar_living_like(
        seed=BENCH_SEED,
        n_tasks=BENCH_SCALE.n_tasks,
        n_workers=BENCH_SCALE.n_workers,
        n_copiers=BENCH_SCALE.n_copiers,
        target_claims=BENCH_SCALE.target_claims,
    )


@pytest.fixture
def disabled_registry():
    registry = MetricsRegistry(enabled=False)
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


def _snapshot(result):
    return (
        dict(result.truths),
        dict(result.confidence),
        dict(result.worker_accuracy),
        result.iterations,
        result.converged,
    )


def _best_of(fn, rounds: int = 5) -> float:
    fn()  # warm-up: JIT-free, but caches and allocators settle
    timings = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return min(timings)


def _overhead(fn_test, fn_base, blocks: int = 3, rounds: int = 12) -> float:
    """Fractional overhead of ``fn_test`` relative to ``fn_base``.

    Percent-level comparisons drown in machine noise unless the design
    cancels it: the variants are interleaved round by round (adjacent
    samples share frequency-scaling and cache state), each block takes
    the *median* of the paired per-round ratios (robust to scheduler
    spikes), and the minimum over independent blocks discards blocks
    that noise inflated wholesale — real overhead persists in every
    block, one-sided noise does not.
    """
    fn_test()
    fn_base()
    medians: list[float] = []
    for _ in range(blocks):
        ratios: list[float] = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn_test()
            t_test = time.perf_counter() - start
            start = time.perf_counter()
            fn_base()
            t_base = time.perf_counter() - start
            ratios.append(t_test / t_base)
        medians.append(statistics.median(ratios))
    return min(medians) - 1.0


def test_instrumented_run_is_bit_identical(
    bench_dataset, tmp_path, disabled_registry
):
    baseline = _snapshot(DATE().run(bench_dataset))
    set_registry(MetricsRegistry(enabled=True))
    with trace_run({"bench": "exactness"}, directory=tmp_path):
        instrumented = _snapshot(DATE().run(bench_dataset))
    assert instrumented == baseline


def test_disabled_overhead_within_2_percent(bench_dataset, disabled_registry):
    """Dead telemetry branches cost <= 2% of the DATE hot loop."""
    index = DatasetIndex(bench_dataset)

    def run():
        DATE().run(bench_dataset, index=index)

    def run_stubbed():
        # Stub the factory so the loop takes the exact same None path
        # but skips even the registry/trace lookups — the closest
        # measurable stand-in for "this code was never instrumented".
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(date_mod, "_run_telemetry", lambda: None)
            DATE().run(bench_dataset, index=index)

    overhead = _overhead(run, run_stubbed)
    print(f"\ndisabled telemetry overhead: {overhead * 100.0:+.2f}%")
    assert overhead <= 0.02, (
        f"disabled-mode telemetry overhead {overhead * 100.0:.2f}% > 2%"
    )


def test_enabled_overhead_within_5_percent(bench_dataset, disabled_registry):
    """Full metrics recording costs <= 5% of the DATE hot loop."""
    index = DatasetIndex(bench_dataset)

    def run():
        DATE().run(bench_dataset, index=index)

    enabled_registry = MetricsRegistry(enabled=True)

    def run_enabled():
        previous = set_registry(enabled_registry)
        try:
            DATE().run(bench_dataset, index=index)
        finally:
            set_registry(previous)

    overhead = _overhead(run_enabled, run)
    print(f"\nenabled telemetry overhead: {overhead * 100.0:+.2f}%")
    assert overhead <= 0.05, (
        f"enabled-mode telemetry overhead {overhead * 100.0:.2f}% > 5%"
    )


def test_null_instrument_hot_path(benchmark):
    """The no-op stub: what every disabled call site pays."""

    def spin():
        for _ in range(10_000):
            NULL.inc()
            NULL.observe(1.0)

    benchmark(spin)


def test_enabled_counter_and_histogram_hot_path(benchmark):
    registry = MetricsRegistry(enabled=True)
    counter = registry.counter("bench_total")
    histogram = registry.histogram("bench_values")

    def spin():
        for _ in range(10_000):
            counter.inc()
            histogram.observe(0.5)

    benchmark(spin)


def test_render_prometheus_scrape(benchmark):
    registry = MetricsRegistry(enabled=True)
    for i in range(50):
        registry.counter("c", labels={"series": str(i)}).inc(i)
        registry.timer("t", labels={"series": str(i)}).observe(i * 0.01)
    benchmark(lambda: render_prometheus(registry))


def test_trace_emit_throughput(benchmark, tmp_path):
    writer = TraceWriter(tmp_path / "bench.jsonl")
    benchmark(lambda: writer.emit("event", value=1.5, phase="bench"))
