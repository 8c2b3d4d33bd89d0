"""Unit tests for the scalar support oracle (tests.oracles.support)."""

from __future__ import annotations

import pytest

from repro.core import DatasetIndex
from tests.oracles.indexing import initial_accuracy_matrix
from tests.oracles.support import select_truths, support_counts


def full_independence(index):
    return [
        {value: {i: 1.0 for i in group} for value, group in groups.items()}
        for groups in index.value_groups
    ]


class TestSupportCounts:
    def test_base_counts_sum_accuracy(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        accuracy = initial_accuracy_matrix(index, 0.5)
        table = support_counts(index, accuracy, full_independence(index))
        # t1: A has 3 supporters at 0.5 accuracy, B has 2.
        assert table[1]["A"] == pytest.approx(1.5)
        assert table[1]["B"] == pytest.approx(1.0)

    def test_independence_discount_reduces_support(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        accuracy = initial_accuracy_matrix(index, 0.5)
        independence = full_independence(index)
        b_group = index.value_groups[1]["B"]
        independence[1]["B"][b_group[-1]] = 0.2
        table = support_counts(index, accuracy, independence)
        assert table[1]["B"] == pytest.approx(0.5 + 0.5 * 0.2)

    def test_non_negative(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        accuracy = initial_accuracy_matrix(index, 0.7)
        table = support_counts(index, accuracy, full_independence(index))
        for counts in table:
            for value in counts.values():
                assert value >= 0.0


class TestSimilarityAdjustment:
    def test_similar_value_lends_support(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        accuracy = initial_accuracy_matrix(index, 0.5)
        independence = full_independence(index)

        def sim(a: str, b: str) -> float:
            return 0.5  # everything half-similar

        plain = support_counts(index, accuracy, independence)
        adjusted = support_counts(
            index, accuracy, independence, similarity=sim, similarity_weight=1.0
        )
        # t1: A gains 0.5 * mass(B \ A) = 0.5 * 1.0 = 0.5.
        assert adjusted[1]["A"] == pytest.approx(plain[1]["A"] + 0.5)
        assert adjusted[1]["B"] == pytest.approx(plain[1]["B"] + 0.5 * 1.5)

    def test_zero_weight_is_noop(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        accuracy = initial_accuracy_matrix(index, 0.5)
        independence = full_independence(index)
        plain = support_counts(index, accuracy, independence)
        adjusted = support_counts(
            index,
            accuracy,
            independence,
            similarity=lambda a, b: 1.0,
            similarity_weight=0.0,
        )
        assert adjusted == plain

    def test_zero_similarity_is_noop(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        accuracy = initial_accuracy_matrix(index, 0.5)
        independence = full_independence(index)
        plain = support_counts(index, accuracy, independence)
        adjusted = support_counts(
            index,
            accuracy,
            independence,
            similarity=lambda a, b: 0.0,
            similarity_weight=1.0,
        )
        assert adjusted == plain

    def test_weight_out_of_range_rejected(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        accuracy = initial_accuracy_matrix(index, 0.5)
        with pytest.raises(ValueError):
            support_counts(
                index,
                accuracy,
                full_independence(index),
                similarity=lambda a, b: 1.0,
                similarity_weight=1.5,
            )


class TestSelectTruths:
    def test_argmax(self):
        assert select_truths([{"A": 1.0, "B": 2.0}]) == ["B"]

    def test_tie_breaks_lexicographically(self):
        assert select_truths([{"zebra": 1.0, "apple": 1.0}]) == ["apple"]

    def test_empty_task_yields_none(self):
        assert select_truths([{}, {"A": 1.0}]) == [None, "A"]
