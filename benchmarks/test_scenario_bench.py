"""Scenario-runner benchmark: parallel fan-out vs serial execution.

Runs the mixed-adversaries scenario (chain copiers + collusion ring +
lazy spammers) at a bench scale heavy enough that per-instance work
dominates pool overhead, and gates the two acceptance criteria of the
parallel executor:

- **Exactness** (`test_parallel_rows_identical`): the 4-worker pool
  produces instance rows bit-identical to the serial path — always
  asserted, on any machine.
- **Speed** (`test_parallel_speedup`): the 4-worker fan-out completes
  the instance sweep >= 2.5x faster than serial.  The gate needs >= 4
  real cores, so it skips on smaller machines and is excluded from
  shared-runner CI like the oracle-vs-engine and streaming speedup
  gates (wall-clock ratios need a quiet box); run locally with::

      pytest benchmarks/test_scenario_bench.py -k speedup -s
"""

from __future__ import annotations

import time

import pytest

from repro.scenarios import get_scenario, run_scenario
from repro.simulation.executor import available_cpus, parallel_map

POOL_WORKERS = 4
MIN_SPEEDUP = 2.5
#: Instance count divides evenly over the pool so the serial/parallel
#: comparison measures throughput, not stragglers.
INSTANCES = 8


@pytest.fixture(scope="module")
def bench_scenario():
    base = get_scenario("mixed-adversaries")
    return base.evolve(
        instances=INSTANCES,
        world=base.world.evolve(
            n_tasks=150, n_workers=80, target_claims=3200
        ),
    )


@pytest.fixture(scope="module")
def warm_pool():
    """Spin the 4-worker spawn pool up once, outside any timed region."""
    parallel_map(abs, list(range(POOL_WORKERS)), parallel=POOL_WORKERS)


def test_parallel_rows_identical(bench_scenario, warm_pool):
    serial = run_scenario(bench_scenario, parallel=1)
    parallel = run_scenario(bench_scenario, parallel=POOL_WORKERS)
    assert serial.table.rows == parallel.table.rows


@pytest.mark.skipif(
    available_cpus() < POOL_WORKERS,
    reason=f"speedup gate needs >= {POOL_WORKERS} CPUs "
    f"(found {available_cpus()}); the exactness test still ran",
)
def test_parallel_speedup(bench_scenario, warm_pool):
    """The acceptance gate: 4-worker fan-out >= 2.5x over serial."""
    start = time.perf_counter()
    serial = run_scenario(bench_scenario, parallel=1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_scenario(bench_scenario, parallel=POOL_WORKERS)
    parallel_s = time.perf_counter() - start

    assert serial.table.rows == parallel.table.rows
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    print(
        f"\nserial {serial_s:.2f}s, parallel({POOL_WORKERS}) {parallel_s:.2f}s "
        f"-> speedup {speedup:.2f}x (gate: >= {MIN_SPEEDUP}x)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"parallel runner only {speedup:.2f}x over serial "
        f"(required >= {MIN_SPEEDUP}x on a {POOL_WORKERS}-worker pool)"
    )
