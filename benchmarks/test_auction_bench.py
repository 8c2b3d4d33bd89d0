"""Auction-engine benchmarks: batched selection + prefix-shared payments.

The acceptance gate of the auction engine lives here: at a
500-worker / 200-task SOAC instance the payment-determination phase —
the O(W³·T) hot path of Alg. 2, one full greedy rerun per winner in the
scalar oracle of ``tests/oracles/auction.py`` — must run at least 5× faster through the prefix-shared
engine, while producing *exactly* the same winners, selection order,
payments, and monopolists.

The ``speedup`` gate is hardware-sensitive (wall-clock ratio), so CI
excludes it with ``-k "not speedup"``; the exactness assertions run at
full scale everywhere.  Run the gate locally via::

    pytest benchmarks/test_auction_bench.py -k speedup -s
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import ReverseAuction, SOACInstance
from repro.auction.engine import batched_greedy_cover, run_auction, vectorized_cover
from tests.oracles.auction import greedy_cover, reference_auction, reference_payments

#: The gate scale from the issue: 500 workers, 200 tasks.
GATE_WORKERS = 500
GATE_TASKS = 200
GATE_SEED = 2024


def sparse_instance(
    n_workers: int, n_tasks: int, *, seed: int, density: float = 0.12
) -> SOACInstance:
    """A synthetic auction-scale SOAC instance.

    Each worker bids on ~``density`` of the tasks with accuracies in
    [0.3, 0.95]; requirements follow the paper's U[2, 4] capped at 80%
    of available accuracy so the instance is always feasible.
    """
    rng = np.random.default_rng(seed)
    accuracy = np.where(
        rng.random((n_workers, n_tasks)) < density,
        rng.uniform(0.3, 0.95, (n_workers, n_tasks)),
        0.0,
    )
    bids = rng.uniform(1.0, 10.0, n_workers)
    requirements = np.minimum(
        rng.uniform(2.0, 4.0, n_tasks), 0.8 * accuracy.sum(axis=0)
    )
    return SOACInstance(
        worker_ids=tuple(f"w{i}" for i in range(n_workers)),
        task_ids=tuple(f"t{j}" for j in range(n_tasks)),
        requirements=requirements,
        accuracy=accuracy,
        bids=bids,
        costs=bids.copy(),
        task_values=np.full(n_tasks, 5.0),
    )


@pytest.fixture(scope="module")
def gate_instance() -> SOACInstance:
    return sparse_instance(GATE_WORKERS, GATE_TASKS, seed=GATE_SEED)


def test_backends_exactly_equal_at_gate_scale(gate_instance):
    """Winners, order, payments, monopolists: bit-for-bit equal."""
    reference = reference_auction(gate_instance)
    vectorized = ReverseAuction().run(gate_instance)
    assert vectorized.winner_ids == reference.winner_ids
    assert vectorized.winner_indexes == reference.winner_indexes
    assert vectorized.monopolists == reference.monopolists
    assert set(vectorized.payments) == set(reference.payments)
    for worker_id, payment in reference.payments.items():
        assert vectorized.payments[worker_id] == payment, worker_id
    assert vectorized.social_cost == reference.social_cost
    assert vectorized.total_payment == reference.total_payment


def test_selection_traces_equal_at_gate_scale(gate_instance):
    """The batched cover replays the scalar greedy round for round."""
    scalar = greedy_cover(gate_instance)
    batched = vectorized_cover(gate_instance)
    assert [w for w, _ in scalar] == [w for w, _ in batched]
    for (_, res_scalar), (_, res_batched) in zip(scalar, batched):
        assert np.array_equal(res_scalar, res_batched)


def test_payment_phase_speedup_gate(gate_instance):
    """The acceptance gate: the engine's payment phase >= 5x the oracle.

    Times only payment determination (selection is timed separately by
    the pytest-benchmark cases below): the oracle reruns the full
    greedy per winner, the engine forks each rerun from the memoized
    shared prefix.  Best-of-N to shrug off scheduler noise.
    """

    def best_of(fn, rounds: int) -> float:
        timings = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            timings.append(time.perf_counter() - start)
        return min(timings)

    selection = greedy_cover(gate_instance)
    trace = batched_greedy_cover(gate_instance)  # warm cache + engine

    t_reference = best_of(
        lambda: reference_payments(gate_instance, selection), rounds=2
    )
    # run_auction includes selection; subtract a fresh selection timing
    # so both sides measure payments only.
    t_cover = best_of(lambda: batched_greedy_cover(gate_instance), rounds=3)
    t_vectorized = (
        best_of(lambda: run_auction(gate_instance), rounds=3) - t_cover
    )
    speedup = t_reference / t_vectorized
    print(
        f"\npayment phase at {GATE_WORKERS}w/{GATE_TASKS}t "
        f"({trace.n_rounds} winners): oracle {t_reference * 1e3:.0f} ms, "
        f"engine {t_vectorized * 1e3:.0f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= 5.0, (
        f"engine payment phase only {speedup:.1f}x faster than the oracle"
    )


def test_vectorized_selection(benchmark, gate_instance):
    gate_instance.sparse_accuracy  # build the CSR index once, outside timing
    benchmark.pedantic(
        lambda: batched_greedy_cover(gate_instance), rounds=3, iterations=1
    )


def test_vectorized_full_auction(benchmark, gate_instance):
    benchmark.pedantic(
        lambda: ReverseAuction().run(gate_instance), rounds=3, iterations=1
    )


def test_reference_selection(benchmark, gate_instance):
    benchmark.pedantic(
        lambda: greedy_cover(gate_instance), rounds=3, iterations=1
    )
