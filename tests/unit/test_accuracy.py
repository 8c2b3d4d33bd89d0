"""Unit tests for the posterior and accuracy oracle (tests.oracles.accuracy)
and the product's per-worker mean accuracy."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import DatasetIndex
from repro.core.date import worker_mean_accuracy
from tests.oracles.accuracy import (
    discounted_value_posteriors,
    update_accuracy_matrix,
    value_posteriors,
)
from tests.oracles.indexing import initial_accuracy_matrix


class TestValuePosteriors:
    def test_normalized_per_task(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        accuracy = initial_accuracy_matrix(index, 0.6)
        posteriors = value_posteriors(index, accuracy)
        for j, table in enumerate(posteriors):
            if index.value_groups[j]:
                assert sum(table.values()) == pytest.approx(1.0)

    def test_majority_value_wins_at_equal_accuracy(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        accuracy = initial_accuracy_matrix(index, 0.6)
        posteriors = value_posteriors(index, accuracy)
        # t1: A supported by 3 workers, B by 2.
        assert posteriors[1]["A"] > posteriors[1]["B"]

    def test_matches_eq20_closed_form(self, tiny_dataset):
        """The exact Bayes computation must equal the paper's Eq. 20
        under the uniform false-value assumption."""
        index = DatasetIndex(tiny_dataset)
        rng = np.random.default_rng(5)
        accuracy = initial_accuracy_matrix(index, 0.5)
        for i, claims in enumerate(index.claims_by_worker):
            for j in claims:
                accuracy[i, j] = rng.uniform(0.2, 0.9)
        posteriors = value_posteriors(index, accuracy)
        for j in range(index.n_tasks):
            num = float(index.num_false[j])
            scores = {}
            for value, group in index.value_groups[j].items():
                scores[value] = math.prod(
                    num * accuracy[i, j] / (1.0 - accuracy[i, j]) for i in group
                )
            total = sum(scores.values())
            for value, score in scores.items():
                assert posteriors[j][value] == pytest.approx(score / total)

    def test_higher_accuracy_supporter_beats_crowd(self):
        """One very accurate worker can outweigh two mediocre ones."""
        from repro import Dataset, Task, WorkerProfile

        tasks = (Task(task_id="t0", domain=("A", "B", "C")),)
        workers = tuple(WorkerProfile(worker_id=f"w{i}") for i in range(3))
        claims = {
            ("w0", "t0"): "A",
            ("w1", "t0"): "B",
            ("w2", "t0"): "B",
        }
        index = DatasetIndex(Dataset(tasks=tasks, workers=workers, claims=claims))
        accuracy = np.array([[0.95], [0.4], [0.4]])
        posteriors = value_posteriors(index, accuracy)
        assert posteriors[0]["A"] > posteriors[0]["B"]

    def test_empty_task_gets_empty_table(self):
        from repro import Dataset, Task, WorkerProfile

        tasks = (Task(task_id="t0"), Task(task_id="t1"))
        workers = (WorkerProfile(worker_id="w"),)
        index = DatasetIndex(
            Dataset(tasks=tasks, workers=workers, claims={("w", "t0"): "x"})
        )
        posteriors = value_posteriors(index, np.full((1, 2), 0.5))
        assert posteriors[1] == {}


class TestDiscountedPosteriors:
    def _full_independence(self, index):
        return [
            {value: {i: 1.0 for i in group} for value, group in groups.items()}
            for groups in index.value_groups
        ]

    def test_equals_plain_when_independence_is_one(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        accuracy = initial_accuracy_matrix(index, 0.6)
        plain = value_posteriors(index, accuracy)
        discounted = discounted_value_posteriors(
            index, accuracy, self._full_independence(index)
        )
        for j in range(index.n_tasks):
            for value in plain[j]:
                assert discounted[j][value] == pytest.approx(plain[j][value])

    def test_discount_weakens_discounted_value(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        accuracy = initial_accuracy_matrix(index, 0.6)
        independence = self._full_independence(index)
        # Mark one of the B-supporters on t1 as a near-certain copier.
        b_group = index.value_groups[1]["B"]
        independence[1]["B"][b_group[-1]] = 0.05
        plain = discounted_value_posteriors(
            index, accuracy, self._full_independence(index)
        )
        discounted = discounted_value_posteriors(index, accuracy, independence)
        assert discounted[1]["B"] < plain[1]["B"]
        assert discounted[1]["A"] > plain[1]["A"]

    def test_normalized(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        accuracy = initial_accuracy_matrix(index, 0.6)
        tables = discounted_value_posteriors(
            index, accuracy, self._full_independence(index)
        )
        for j, table in enumerate(tables):
            if index.value_groups[j]:
                assert sum(table.values()) == pytest.approx(1.0)


class TestAccuracyUpdate:
    def test_worker_granularity_broadcasts_mean(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        posteriors = value_posteriors(index, initial_accuracy_matrix(index, 0.6))
        matrix = update_accuracy_matrix(index, posteriors, granularity="worker")
        for i, claims in enumerate(index.claims_by_worker):
            values = [matrix[i, j] for j in claims]
            if values:
                assert max(values) == pytest.approx(min(values))

    def test_task_granularity_uses_per_task_posterior(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        posteriors = value_posteriors(index, initial_accuracy_matrix(index, 0.6))
        matrix = update_accuracy_matrix(index, posteriors, granularity="task")
        for i, claims in enumerate(index.claims_by_worker):
            for j, value in claims.items():
                assert matrix[i, j] == pytest.approx(posteriors[j][value])

    def test_unanswered_cells_stay_zero(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        posteriors = value_posteriors(index, initial_accuracy_matrix(index, 0.6))
        matrix = update_accuracy_matrix(index, posteriors)
        assert matrix[4, 2] == 0.0  # w5 did not answer t2
        assert matrix[4, 3] == 0.0

    def test_reliable_workers_score_higher(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        posteriors = value_posteriors(index, initial_accuracy_matrix(index, 0.6))
        matrix = update_accuracy_matrix(index, posteriors)
        means = worker_mean_accuracy(index, matrix)
        # w1 (always in the majority) must beat w3 (wrong on 3 tasks).
        assert means[0] > means[2]

    def test_unknown_granularity_rejected(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        posteriors = value_posteriors(index, initial_accuracy_matrix(index, 0.6))
        with pytest.raises(ValueError):
            update_accuracy_matrix(index, posteriors, granularity="per-claim")

    def test_idle_worker_mean_is_zero(self):
        from repro import Dataset, Task, WorkerProfile

        tasks = (Task(task_id="t0"),)
        workers = (WorkerProfile(worker_id="busy"), WorkerProfile(worker_id="idle"))
        index = DatasetIndex(
            Dataset(tasks=tasks, workers=workers, claims={("busy", "t0"): "x"})
        )
        means = worker_mean_accuracy(index, np.array([[0.7], [0.0]]))
        assert means[1] == 0.0
