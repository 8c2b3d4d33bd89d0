"""Unit tests for the scalar dependence oracle (tests.oracles.dependence).

The key behavioural contracts from Sec. III-A:

- posteriors are proper probabilities over the three hypotheses;
- sharing *false* values is much stronger copying evidence than
  sharing true values (Eq. 8 vs Eq. 7);
- providing different values is evidence of independence (Eq. 13);
- identical data makes the two directions indistinguishable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Dataset, Task, WorkerProfile
from repro.core import DatasetIndex
from tests.oracles.dependence import (
    compute_pairwise_dependence,
    directed_probability,
    total_dependence,
)
from tests.oracles.indexing import initial_accuracy_matrix, majority_vote


def make_pairwise(claims_a: list[str], claims_b: list[str], truths: list[str]):
    """Two workers answering len(truths) tasks with the given values."""
    m = len(truths)
    tasks = tuple(
        Task(task_id=f"t{j}", domain=("A", "B", "C", "D"), truth=truths[j])
        for j in range(m)
    )
    workers = (WorkerProfile(worker_id="a"), WorkerProfile(worker_id="b"))
    claims = {}
    for j in range(m):
        claims[("a", f"t{j}")] = claims_a[j]
        claims[("b", f"t{j}")] = claims_b[j]
    dataset = Dataset(tasks=tasks, workers=workers, claims=claims)
    index = DatasetIndex(dataset)
    accuracy = initial_accuracy_matrix(index, 0.6)
    posteriors = compute_pairwise_dependence(
        index,
        truths,
        accuracy,
        copy_prob_r=0.5,
        prior_alpha=0.2,
    )
    return posteriors[(0, 1)]


class TestPosteriorBasics:
    def test_probabilities_normalized(self):
        post = make_pairwise(["A", "B"], ["A", "C"], ["A", "A"])
        assert 0.0 <= post.p_a_to_b <= 1.0
        assert 0.0 <= post.p_b_to_a <= 1.0
        assert post.p_independent == pytest.approx(
            1.0 - post.p_a_to_b - post.p_b_to_a
        )
        assert post.p_dependent == pytest.approx(post.p_a_to_b + post.p_b_to_a)

    def test_identical_data_gives_symmetric_directions(self):
        post = make_pairwise(["A", "B", "B"], ["A", "B", "B"], ["A", "A", "A"])
        assert post.p_a_to_b == pytest.approx(post.p_b_to_a)

    def test_covers_exactly_coanswering_pairs(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        accuracy = initial_accuracy_matrix(index, 0.5)
        posteriors = compute_pairwise_dependence(
            index,
            majority_vote(index),
            accuracy,
            copy_prob_r=0.4,
            prior_alpha=0.2,
        )
        assert set(posteriors) == set(index.pairs)


class TestEvidenceStrength:
    def test_shared_false_values_are_stronger_evidence_than_true(self):
        shared_false = make_pairwise(
            ["B", "B", "B"], ["B", "B", "B"], ["A", "A", "A"]
        )
        shared_true = make_pairwise(
            ["A", "A", "A"], ["A", "A", "A"], ["A", "A", "A"]
        )
        assert shared_false.p_dependent > shared_true.p_dependent

    def test_different_values_push_toward_independence(self):
        agree = make_pairwise(["B", "B"], ["B", "B"], ["A", "A"])
        disagree = make_pairwise(["B", "C"], ["C", "B"], ["A", "A"])
        assert disagree.p_dependent < agree.p_dependent

    def test_more_shared_false_values_more_dependence(self):
        two = make_pairwise(
            ["B", "B", "A", "A"], ["B", "B", "A", "A"], ["A", "A", "A", "A"]
        )
        # Same agreement count, but all four shared values false.
        four = make_pairwise(
            ["B", "B", "B", "B"], ["B", "B", "B", "B"], ["A", "A", "A", "A"]
        )
        assert four.p_dependent > two.p_dependent

    def test_prior_alpha_scales_posterior(self):
        def with_alpha(alpha: float) -> float:
            tasks = tuple(
                Task(task_id=f"t{j}", domain=("A", "B", "C"), truth="A")
                for j in range(3)
            )
            workers = (WorkerProfile(worker_id="a"), WorkerProfile(worker_id="b"))
            claims = {}
            for j in range(3):
                claims[("a", f"t{j}")] = "B"
                claims[("b", f"t{j}")] = "B"
            index = DatasetIndex(
                Dataset(tasks=tasks, workers=workers, claims=claims)
            )
            accuracy = initial_accuracy_matrix(index, 0.6)
            post = compute_pairwise_dependence(
                index,
                ["A", "A", "A"],
                accuracy,
                copy_prob_r=0.5,
                prior_alpha=alpha,
            )[(0, 1)]
            return post.p_dependent

        assert with_alpha(0.5) > with_alpha(0.1)


class TestParameterValidation:
    def test_copy_prob_bounds(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        accuracy = initial_accuracy_matrix(index, 0.5)
        for bad_r in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                compute_pairwise_dependence(
                    index,
                    majority_vote(index),
                    accuracy,
                    copy_prob_r=bad_r,
                    prior_alpha=0.2,
                )

    def test_alpha_bounds(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        accuracy = initial_accuracy_matrix(index, 0.5)
        for bad_alpha in (0.0, 1.0):
            with pytest.raises(ValueError):
                compute_pairwise_dependence(
                    index,
                    majority_vote(index),
                    accuracy,
                    copy_prob_r=0.4,
                    prior_alpha=bad_alpha,
                )

    def test_extreme_accuracy_does_not_blow_up(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        accuracy = np.ones((index.n_workers, index.n_tasks))
        posteriors = compute_pairwise_dependence(
            index,
            majority_vote(index),
            accuracy,
            copy_prob_r=0.4,
            prior_alpha=0.2,
        )
        for post in posteriors.values():
            assert np.isfinite(post.p_a_to_b)
            assert np.isfinite(post.p_b_to_a)


class TestLookupHelpers:
    def test_directed_probability_orientation(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        accuracy = initial_accuracy_matrix(index, 0.5)
        posteriors = compute_pairwise_dependence(
            index,
            majority_vote(index),
            accuracy,
            copy_prob_r=0.4,
            prior_alpha=0.2,
        )
        post = posteriors[(2, 3)]
        assert directed_probability(posteriors, 2, 3) == post.p_a_to_b
        assert directed_probability(posteriors, 3, 2) == post.p_b_to_a

    def test_directed_probability_missing_pair_is_zero(self):
        assert directed_probability({}, 0, 1) == 0.0
        assert directed_probability({}, 1, 1) == 0.0

    def test_total_dependence_symmetric(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        accuracy = initial_accuracy_matrix(index, 0.5)
        posteriors = compute_pairwise_dependence(
            index,
            majority_vote(index),
            accuracy,
            copy_prob_r=0.4,
            prior_alpha=0.2,
        )
        assert total_dependence(posteriors, 2, 3) == total_dependence(
            posteriors, 3, 2
        )


class TestCopierScenario:
    def test_copier_pair_stands_out(self, tiny_dataset):
        """w3-w4 (identical, wrong half the time) must out-score w1-w2."""
        index = DatasetIndex(tiny_dataset)
        accuracy = initial_accuracy_matrix(index, 0.5)
        truths = ["A", "A", "A", "A"]  # actual ground truth
        posteriors = compute_pairwise_dependence(
            index, truths, accuracy, copy_prob_r=0.8, prior_alpha=0.2
        )
        copier_pair = total_dependence(posteriors, 2, 3)  # w3, w4
        honest_pair = total_dependence(posteriors, 0, 1)  # w1, w2
        assert copier_pair > honest_pair
        assert copier_pair > 0.5
