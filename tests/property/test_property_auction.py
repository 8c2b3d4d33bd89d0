"""Property-based tests on the auction layer (hypothesis).

Random feasible SOAC instances must always satisfy the mechanism's
structural guarantees: full coverage, individual rationality under
truthful bidding, monotone selection, and greedy ≥ optimal.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import ReverseAuction, SOACInstance, solve_optimal
from tests.oracles.auction import greedy_cover
from repro.baselines import GreedyAccuracy, GreedyBid


@st.composite
def soac_instances(draw, max_workers=8, max_tasks=4):
    """Random instances, made feasible by capping requirements."""
    n = draw(st.integers(min_value=2, max_value=max_workers))
    m = draw(st.integers(min_value=1, max_value=max_tasks))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    accuracy = np.where(
        rng.random((n, m)) < 0.7, rng.uniform(0.1, 0.95, (n, m)), 0.0
    )
    # Ensure every task has at least one capable worker.
    for j in range(m):
        if accuracy[:, j].sum() == 0.0:
            accuracy[rng.integers(n), j] = rng.uniform(0.3, 0.9)
    requirements = rng.uniform(0.2, 2.0, m)
    requirements = np.minimum(requirements, 0.9 * accuracy.sum(axis=0))
    bids = rng.uniform(0.5, 9.0, n)
    return SOACInstance(
        worker_ids=tuple(f"w{i}" for i in range(n)),
        task_ids=tuple(f"t{j}" for j in range(m)),
        requirements=requirements,
        accuracy=accuracy,
        bids=bids,
        costs=bids.copy(),
        task_values=np.full(m, 5.0),
    )


class TestGreedyCoverProperties:
    @given(instance=soac_instances())
    @settings(max_examples=50)
    def test_selection_covers_and_never_repeats(self, instance):
        selection = greedy_cover(instance)
        workers = [w for w, _ in selection]
        assert len(set(workers)) == len(workers)
        assert instance.is_covering(workers)

    @given(instance=soac_instances())
    @settings(max_examples=50)
    def test_every_selected_worker_was_useful(self, instance):
        for worker, residual in greedy_cover(instance):
            marginal = float(
                np.minimum(residual, instance.accuracy[worker]).sum()
            )
            assert marginal > 0.0


class TestAuctionProperties:
    @given(instance=soac_instances())
    @settings(max_examples=40)
    def test_individual_rationality_under_truthful_bids(self, instance):
        outcome = ReverseAuction().run(instance)
        cost_by_id = dict(zip(instance.worker_ids, instance.costs))
        for winner, payment in outcome.payments.items():
            assert payment >= cost_by_id[winner] - 1e-9

    @given(instance=soac_instances())
    @settings(max_examples=40)
    def test_social_cost_matches_selection(self, instance):
        outcome = ReverseAuction().run(instance)
        assert outcome.social_cost == float(
            sum(instance.costs[i] for i in outcome.winner_indexes)
        )

    @given(instance=soac_instances(), factor=st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=40)
    def test_selection_monotone_in_bid(self, instance, factor):
        """A winner that lowers its bid must keep winning (Theorem 2)."""
        outcome = ReverseAuction().run(instance)
        assume(outcome.winner_ids)
        winner = outcome.winner_ids[0]
        index = instance.worker_ids.index(winner)
        lowered = instance.with_bid(index, float(instance.bids[index]) * factor)
        again = ReverseAuction().run(lowered)
        assert winner in again.payments

    @given(instance=soac_instances())
    @settings(max_examples=25)
    def test_greedy_at_least_optimal_and_bounded(self, instance):
        from repro.auction.properties import approximation_bound

        greedy = ReverseAuction().run(instance)
        optimal = solve_optimal(instance)
        assert greedy.social_cost >= optimal.social_cost - 1e-6
        if optimal.social_cost > 1e-9:
            ratio = greedy.social_cost / optimal.social_cost
            assert ratio <= approximation_bound(instance) + 1e-6

    @given(instance=soac_instances())
    @settings(max_examples=30)
    def test_all_auctions_cover(self, instance):
        """RA, GA and GB must each produce a covering winner set.

        Note: RA is *not* instance-wise dominant over GA/GB — greedy
        set cover can lose on individual instances (hypothesis found a
        3-worker counterexample) — so the Fig. 6 cost ordering is an
        average-case claim, asserted over seeds in the unit suite.  The
        per-instance guarantee RA has is the approximation bound,
        tested in test_greedy_at_least_optimal_and_bounded.
        """
        for algorithm in (ReverseAuction(), GreedyAccuracy(), GreedyBid()):
            outcome = algorithm.run(instance)
            assert instance.is_covering(outcome.winner_indexes)

    @given(instance=soac_instances())
    @settings(max_examples=30)
    def test_payments_finite_and_non_negative(self, instance):
        outcome = ReverseAuction().run(instance)
        for payment in outcome.payments.values():
            assert math.isfinite(payment)
            assert payment >= 0.0

    @given(instance=soac_instances())
    @settings(max_examples=30)
    def test_winner_lists_consistent(self, instance):
        outcome = ReverseAuction().run(instance)
        assert set(outcome.payments) == set(outcome.winner_ids)
        assert len(outcome.winner_ids) == len(set(outcome.winner_ids))
