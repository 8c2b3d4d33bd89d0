"""Edge-case tests for the auction layer beyond the core suites."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ReverseAuction, SOACInstance
from tests.oracles.auction import greedy_cover


def instance_from(accuracy, bids, requirements, costs=None):
    accuracy = np.asarray(accuracy, dtype=float)
    n, m = accuracy.shape
    bids = np.asarray(bids, dtype=float)
    return SOACInstance(
        worker_ids=tuple(f"w{i}" for i in range(n)),
        task_ids=tuple(f"t{j}" for j in range(m)),
        requirements=np.asarray(requirements, dtype=float),
        accuracy=accuracy,
        bids=bids,
        costs=np.asarray(costs, dtype=float) if costs is not None else bids.copy(),
        task_values=np.full(m, 5.0),
    )


class TestZeroRequirements:
    def test_nothing_to_cover_selects_nobody(self):
        instance = instance_from(
            accuracy=[[0.5], [0.7]], bids=[1.0, 2.0], requirements=[0.0]
        )
        outcome = ReverseAuction().run(instance)
        assert outcome.winner_ids == ()
        assert outcome.social_cost == 0.0
        assert outcome.total_payment == 0.0

    def test_mixed_zero_and_positive(self):
        instance = instance_from(
            accuracy=[[0.9, 0.9], [0.0, 0.9]],
            bids=[5.0, 1.0],
            requirements=[0.0, 0.5],
        )
        outcome = ReverseAuction().run(instance)
        # Only t1 needs covering; the cheap specialist w1 suffices.
        assert outcome.winner_ids == ("w1",)


class TestFreeWorkers:
    def test_zero_bid_worker_selected_first(self):
        instance = instance_from(
            accuracy=[[0.5], [0.9]], bids=[0.0, 1.0], requirements=[1.2]
        )
        selection = [w for w, _ in greedy_cover(instance)]
        assert selection[0] == 0  # ratio 0 beats everything

    def test_all_zero_bids(self):
        instance = instance_from(
            accuracy=[[0.8], [0.8]], bids=[0.0, 0.0], requirements=[1.0]
        )
        outcome = ReverseAuction().run(instance)
        assert outcome.social_cost == 0.0


class TestTieBreaking:
    def test_equal_ratio_prefers_lower_index(self):
        instance = instance_from(
            accuracy=[[0.5], [0.5]], bids=[1.0, 1.0], requirements=[0.5]
        )
        selection = [w for w, _ in greedy_cover(instance)]
        assert selection == [0]

    def test_deterministic_across_runs(self, soac_medium):
        a = ReverseAuction().run(soac_medium)
        b = ReverseAuction().run(soac_medium)
        assert a.winner_ids == b.winner_ids
        assert a.payments == b.payments


class TestRequirementSaturation:
    def test_exact_cover_boundary(self):
        """A worker whose accuracy exactly equals the requirement covers it."""
        instance = instance_from(
            accuracy=[[0.7]], bids=[1.0], requirements=[0.7]
        )
        outcome = ReverseAuction().run(instance)
        assert outcome.winner_ids == ("w0",)

    def test_tiny_residual_not_double_counted(self):
        """Floating-point residue below the tolerance ends the loop."""
        instance = instance_from(
            accuracy=[[0.1], [0.2]],
            bids=[1.0, 1.0],
            requirements=[0.3],
        )
        outcome = ReverseAuction().run(instance)
        assert set(outcome.winner_ids) == {"w0", "w1"}


class TestPaymentStructure:
    def test_payment_independent_of_own_bid(self):
        """A winner's payment is computed over W\\{i} and therefore
        cannot depend on its own declared bid (the heart of
        truthfulness)."""
        instance = instance_from(
            accuracy=[[0.9], [0.8], [0.7]],
            bids=[1.0, 2.0, 3.0],
            requirements=[0.9],
        )
        base = ReverseAuction().run(instance)
        assert base.winner_ids == ("w0",)
        p_base = base.payments["w0"]
        for bid in (0.5, 1.4):
            shifted = ReverseAuction().run(instance.with_bid(0, bid))
            if "w0" in shifted.payments:
                assert shifted.payments["w0"] == pytest.approx(p_base)

    def test_multi_winner_payments_all_critical(self):
        """With two winners needed, each is paid relative to the
        replacement that would have taken its slot."""
        instance = instance_from(
            accuracy=[[0.6], [0.6], [0.6]],
            bids=[1.0, 2.0, 5.0],
            requirements=[1.0],
        )
        outcome = ReverseAuction().run(instance)
        assert set(outcome.winner_ids) == {"w0", "w1"}
        # w2 (bid 5) is the replacement for either winner.
        assert outcome.payments["w0"] == pytest.approx(5.0)
        assert outcome.payments["w1"] == pytest.approx(5.0)


class TestCapInteraction:
    def test_capped_instance_always_feasible(self, soac_medium):
        bumped = SOACInstance(
            worker_ids=soac_medium.worker_ids,
            task_ids=soac_medium.task_ids,
            requirements=soac_medium.requirements * 100.0,
            accuracy=soac_medium.accuracy,
            bids=soac_medium.bids,
            costs=soac_medium.costs,
            task_values=soac_medium.task_values,
        )
        capped = bumped.with_capped_requirements(0.8)
        assert capped.is_feasible
        outcome = ReverseAuction().run(capped)
        assert capped.is_covering(outcome.winner_indexes)
