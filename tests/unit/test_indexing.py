"""Unit tests for DatasetIndex (repro.core.indexing)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Dataset, Task, WorkerProfile
from repro.core import DatasetIndex
from tests.oracles.indexing import initial_accuracy_matrix


class TestIndexStructure:
    def test_positions_follow_dataset_order(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        assert index.task_ids == ["t0", "t1", "t2", "t3"]
        assert index.worker_ids == ["w1", "w2", "w3", "w4", "w5"]
        assert index.task_pos["t2"] == 2
        assert index.worker_pos["w4"] == 3

    def test_claims_round_trip(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        for (worker_id, task_id), value in tiny_dataset.claims.items():
            i = index.worker_pos[worker_id]
            j = index.task_pos[task_id]
            assert index.claims_by_task[j][i] == value
            assert index.claims_by_worker[i][j] == value

    def test_value_groups_sorted_and_complete(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        groups = index.value_groups[1]  # task t1
        assert list(groups) == sorted(groups)
        assert groups["A"] == (0, 1, 4)
        assert groups["B"] == (2, 3)

    def test_num_false_from_closed_domain(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        assert list(index.num_false) == [2, 2, 2, 2]

    def test_num_false_open_domain_from_observation(self):
        tasks = (Task(task_id="t0"), Task(task_id="t1"))
        workers = tuple(WorkerProfile(worker_id=f"w{i}") for i in range(3))
        claims = {
            ("w0", "t0"): "x",
            ("w1", "t0"): "y",
            ("w2", "t0"): "z",
            ("w0", "t1"): "only",
        }
        index = DatasetIndex(Dataset(tasks=tasks, workers=workers, claims=claims))
        assert index.num_false[0] == 2  # three observed values
        assert index.num_false[1] == 1  # floor of 1

    def test_pairs_only_for_coanswering_workers(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        # w5 answered only t0, t1; it co-answers with everyone there.
        assert (0, 4) in index.pairs
        # All pairs among w1..w4 share all four tasks.
        assert (0, 1) in index.pairs
        assert all(a < b for a, b in index.pairs)

    def test_shared_tasks_contents(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        assert index.shared_tasks[(0, 1)] == (0, 1, 2, 3)
        assert index.shared_tasks[(0, 4)] == (0, 1)

    def test_no_pairs_without_overlap(self):
        tasks = (Task(task_id="t0"), Task(task_id="t1"))
        workers = (WorkerProfile(worker_id="a"), WorkerProfile(worker_id="b"))
        claims = {("a", "t0"): "x", ("b", "t1"): "y"}
        index = DatasetIndex(Dataset(tasks=tasks, workers=workers, claims=claims))
        assert index.pairs == []
        assert index.shared_tasks == {}


class TestInitialAccuracy:
    def test_epsilon_only_on_answered_cells(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        matrix = initial_accuracy_matrix(index, 0.5)
        assert matrix.shape == (5, 4)
        assert matrix[0, 0] == 0.5
        assert matrix[4, 2] == 0.0  # w5 did not answer t2
        answered = sum(len(c) for c in index.claims_by_worker)
        assert np.count_nonzero(matrix) == answered


def majority_vote(index):
    """DATE's initial truth estimate, decoded from the claim arrays."""
    return index.arrays.truth_values(index.arrays.majority_codes())


class TestMajorityVote:
    def test_majority_wins(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        votes = majority_vote(index)
        # t1: A has 3 votes (w1, w2, w5) vs B with 2.
        assert votes[1] == "A"
        # t2: A has 2 votes (w1, w2) vs B with 2 -> lexicographic tie.
        assert votes[2] == "A"

    def test_tie_breaks_lexicographically(self):
        tasks = (Task(task_id="t0"),)
        workers = (WorkerProfile(worker_id="a"), WorkerProfile(worker_id="b"))
        claims = {("a", "t0"): "zebra", ("b", "t0"): "apple"}
        index = DatasetIndex(Dataset(tasks=tasks, workers=workers, claims=claims))
        assert majority_vote(index) == ["apple"]

    def test_unanswered_task_yields_none(self):
        tasks = (Task(task_id="t0"), Task(task_id="t1"))
        workers = (WorkerProfile(worker_id="a"),)
        claims = {("a", "t0"): "x"}
        index = DatasetIndex(Dataset(tasks=tasks, workers=workers, claims=claims))
        assert majority_vote(index) == ["x", None]


from tests.conftest import assert_same_claim_arrays as assert_same_arrays


class TestIndexExtension:
    def split(self, dataset, n_first_tasks):
        first = [t.task_id for t in dataset.tasks[:n_first_tasks]]
        first_set = set(first)
        base_claims = {k: v for k, v in dataset.claims.items() if k[1] in first_set}
        rest_claims = {k: v for k, v in dataset.claims.items() if k[1] not in first_set}
        base = Dataset(
            tasks=dataset.tasks[:n_first_tasks],
            workers=dataset.workers,
            claims=base_claims,
        )
        return base, dataset.tasks[n_first_tasks:], rest_claims

    def test_appended_tasks_match_cold_rebuild(self, tiny_dataset):
        base, new_tasks, new_claims = self.split(tiny_dataset, 2)
        index = DatasetIndex(base)
        index.arrays
        ext = index.extended(tasks=new_tasks, claims=new_claims)
        cold = DatasetIndex(tiny_dataset)
        assert ext.index.task_ids == cold.task_ids
        assert ext.index.value_groups == cold.value_groups
        np.testing.assert_array_equal(ext.index.num_false, cold.num_false)
        assert_same_arrays(ext.index.arrays, cold.arrays)

    def test_pair_tables_extend_when_materialized(self, tiny_dataset):
        base, new_tasks, new_claims = self.split(tiny_dataset, 2)
        index = DatasetIndex(base)
        index.arrays._pair_tables
        ext = index.extended(tasks=new_tasks, claims=new_claims)
        assert "_pair_tables" in ext.index.arrays.__dict__
        cold = DatasetIndex(tiny_dataset)
        for got, want in zip(
            ext.index.arrays._pair_tables, cold.arrays._pair_tables
        ):
            np.testing.assert_array_equal(got, want)

    def test_claims_on_existing_tasks_mark_them_dirty(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        index.arrays
        ext = index.extended(claims={("w5", "t2"): "C", ("w5", "t3"): "A"})
        assert sorted(ext.dirty_tasks.tolist()) == [2, 3]
        assert len(ext.new_task_positions) == 0
        merged = dict(tiny_dataset.claims)
        merged.update({("w5", "t2"): "C", ("w5", "t3"): "A"})
        cold = DatasetIndex(
            Dataset(tasks=tiny_dataset.tasks, workers=tiny_dataset.workers,
                    claims=merged)
        )
        assert_same_arrays(ext.index.arrays, cold.arrays)

    def test_claim_map_carries_per_claim_state(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        arrays = index.arrays
        state = np.arange(arrays.n_claims, dtype=np.float64)
        ext = index.extended(claims={("w5", "t2"): "C"})
        carried = np.full(ext.index.arrays.n_claims, -1.0)
        carried[ext.claim_map] = state
        for old_pos in range(arrays.n_claims):
            new_pos = int(ext.claim_map[old_pos])
            assert arrays.claim_worker[old_pos] == ext.index.arrays.claim_worker[new_pos]
            assert arrays.claim_task[old_pos] == ext.index.arrays.claim_task[new_pos]
        # exactly one new claim got no carried state
        assert (carried < 0).sum() == 1

    def test_claim_map_none_without_materialized_arrays(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        ext = index.extended(claims={("w5", "t2"): "C"})
        assert ext.claim_map is None
        # the new index still encodes correctly, just lazily
        assert ext.index.arrays.n_claims == index.dataset.n_claims + 1

    def test_old_index_is_not_mutated(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        before_groups = {j: dict(g) for j, g in enumerate(index.value_groups)}
        before_claims = {j: dict(c) for j, c in enumerate(index.claims_by_task)}
        index.arrays
        index.extended(claims={("w5", "t2"): "C"})
        assert {j: dict(g) for j, g in enumerate(index.value_groups)} == before_groups
        assert {j: dict(c) for j, c in enumerate(index.claims_by_task)} == before_claims
        assert index.arrays.n_claims == tiny_dataset.n_claims

    def test_new_workers_and_sources(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        index.arrays
        newbies = (
            WorkerProfile(worker_id="w6"),
            WorkerProfile(
                worker_id="w7", is_copier=True, sources=("w6",), copy_prob=0.5
            ),
        )
        ext = index.extended(workers=newbies, claims={("w6", "t0"): "B"})
        assert ext.index.worker_ids[-2:] == ["w6", "w7"]
        assert ext.index.claims_by_worker[5] == {0: "B"}
        assert ext.index.claims_by_worker[6] == {}

    def test_validation_errors(self, tiny_dataset):
        from repro.errors import DataFormatError

        index = DatasetIndex(tiny_dataset)
        with pytest.raises(DataFormatError, match="unknown task"):
            index.extended(claims={("w1", "nope"): "A"})
        with pytest.raises(DataFormatError, match="unknown worker"):
            index.extended(claims={("nope", "t0"): "A"})
        with pytest.raises(DataFormatError, match="duplicate claim"):
            index.extended(claims={("w1", "t0"): "B"})
        with pytest.raises(DataFormatError, match="re-adds existing task"):
            index.extended(tasks=(Task(task_id="t0"),))
        with pytest.raises(DataFormatError, match="re-adds existing worker"):
            index.extended(workers=(WorkerProfile(worker_id="w1"),))
        with pytest.raises(DataFormatError, match="closed domain"):
            index.extended(claims={("w5", "t2"): "Z"})
        with pytest.raises(DataFormatError, match="unknown worker"):
            index.extended(
                workers=(
                    WorkerProfile(
                        worker_id="w9", is_copier=True, sources=("ghost",),
                        copy_prob=0.5,
                    ),
                )
            )
        with pytest.raises(DataFormatError, match="non-empty string"):
            index.extended(claims={("w5", "t2"): ""})
