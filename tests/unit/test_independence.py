"""Unit tests for the scalar independence oracle (tests.oracles.independence)."""

from __future__ import annotations

import pytest

from repro.core import DatasetIndex
from repro.core.dependence import DependencePosterior
from tests.oracles.dependence import compute_pairwise_dependence
from tests.oracles.independence import (
    independence_probabilities,
    order_value_group,
)
from tests.oracles.indexing import initial_accuracy_matrix, majority_vote


def posteriors_with(pairs: dict[tuple[int, int], tuple[float, float]]):
    return {
        key: DependencePosterior(p_a_to_b=ab, p_b_to_a=ba)
        for key, (ab, ba) in pairs.items()
    }


class TestOrdering:
    def test_single_worker_group(self):
        assert order_value_group((7,), {}) == [7]

    def test_dependent_first_puts_hub_first(self):
        # Worker 0 is strongly connected to both 1 and 2.
        posteriors = posteriors_with(
            {(0, 1): (0.4, 0.4), (0, 2): (0.4, 0.4), (1, 2): (0.05, 0.05)}
        )
        order = order_value_group((0, 1, 2), posteriors, ordering="dependent_first")
        assert order[0] == 0

    def test_independent_first_puts_loner_first(self):
        posteriors = posteriors_with(
            {(0, 1): (0.4, 0.4), (0, 2): (0.4, 0.4), (1, 2): (0.05, 0.05)}
        )
        order = order_value_group(
            (0, 1, 2), posteriors, ordering="independent_first"
        )
        assert order[0] in (1, 2)

    def test_subsequent_picks_by_attachment(self):
        # After the hub 0, worker 2 has the stronger directed link to 0.
        posteriors = posteriors_with(
            {(0, 1): (0.3, 0.1), (0, 2): (0.3, 0.5), (1, 2): (0.0, 0.0)}
        )
        # directed P(1->0) = p_b_to_a of pair (0,1) = 0.1
        # directed P(2->0) = p_b_to_a of pair (0,2) = 0.5
        order = order_value_group((0, 1, 2), posteriors, ordering="dependent_first")
        assert order[0] == 0
        assert order[1] == 2

    def test_tie_breaks_deterministic(self):
        order_a = order_value_group((3, 1, 2), {})
        order_b = order_value_group((1, 2, 3), {})
        assert order_a == order_b

    def test_unknown_ordering_rejected(self):
        with pytest.raises(ValueError):
            order_value_group((0, 1), {}, ordering="alphabetical")


class TestIndependenceTable:
    def test_first_worker_fully_independent(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        accuracy = initial_accuracy_matrix(index, 0.5)
        deps = compute_pairwise_dependence(
            index,
            majority_vote(index),
            accuracy,
            copy_prob_r=0.6,
            prior_alpha=0.3,
        )
        table = independence_probabilities(index, deps, copy_prob_r=0.6)
        for j in range(index.n_tasks):
            for value, scores in table[j].items():
                assert max(scores.values()) == pytest.approx(1.0)

    def test_scores_in_unit_interval(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        accuracy = initial_accuracy_matrix(index, 0.5)
        deps = compute_pairwise_dependence(
            index,
            majority_vote(index),
            accuracy,
            copy_prob_r=0.6,
            prior_alpha=0.3,
        )
        table = independence_probabilities(index, deps, copy_prob_r=0.6)
        for per_value in table:
            for scores in per_value.values():
                for score in scores.values():
                    assert 0.0 < score <= 1.0

    def test_covers_every_provider(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        table = independence_probabilities(index, {}, copy_prob_r=0.4)
        for j in range(index.n_tasks):
            assert set(table[j]) == set(index.value_groups[j])
            for value, group in index.value_groups[j].items():
                assert set(table[j][value]) == set(group)

    def test_no_dependence_means_no_discount(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        table = independence_probabilities(index, {}, copy_prob_r=0.4)
        for per_value in table:
            for scores in per_value.values():
                assert all(score == 1.0 for score in scores.values())

    def test_total_mode_discounts_at_least_as_much(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        accuracy = initial_accuracy_matrix(index, 0.5)
        deps = compute_pairwise_dependence(
            index,
            majority_vote(index),
            accuracy,
            copy_prob_r=0.8,
            prior_alpha=0.3,
        )
        directed = independence_probabilities(
            index, deps, copy_prob_r=0.8, discount_mode="directed"
        )
        total = independence_probabilities(
            index, deps, copy_prob_r=0.8, discount_mode="total"
        )
        for j in range(index.n_tasks):
            for value in directed[j]:
                for worker in directed[j][value]:
                    assert total[j][value][worker] <= directed[j][value][worker] + 1e-12

    def test_copier_discounted_in_tiny_dataset(self, tiny_dataset):
        """On t1 (w3, w4 share the false 'B'), the later of the pair
        must receive a real discount."""
        index = DatasetIndex(tiny_dataset)
        accuracy = initial_accuracy_matrix(index, 0.5)
        deps = compute_pairwise_dependence(
            index, ["A"] * 4, accuracy, copy_prob_r=0.8, prior_alpha=0.2
        )
        table = independence_probabilities(index, deps, copy_prob_r=0.8)
        b_scores = table[1]["B"]  # workers 2 and 3 (w3, w4)
        assert min(b_scores.values()) < 0.8
        assert max(b_scores.values()) == pytest.approx(1.0)

    def test_invalid_r_rejected(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        with pytest.raises(ValueError):
            independence_probabilities(index, {}, copy_prob_r=0.0)

    def test_invalid_mode_rejected(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        with pytest.raises(ValueError):
            independence_probabilities(
                index, {}, copy_prob_r=0.4, discount_mode="both"
            )
