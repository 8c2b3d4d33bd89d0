"""Unit tests for the array claims encoding and the DATE kernels.

The property suite (tests/property/test_property_backends.py) pins the
end-to-end equivalence with the scalar oracles; these tests pin the
structural invariants of :class:`ClaimArrays` and the kernel-by-kernel
agreement with the oracles on a fixed realistic dataset.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DATE, Dataset, DateConfig, Task, WorkerProfile
from repro.baselines import MajorityVote
from repro.core import DatasetIndex
from repro.core.engine import (
    accuracy_flat,
    dense_accuracy,
    dependence_table,
    independence_flat,
    pairwise_dependence_arrays,
    plain_posterior_groups,
    posterior_table,
    select_truth_codes,
    support_flat,
)
from repro.core.falsedist import UniformFalseValues
from repro.datasets import generate_qatar_living_like
from tests.oracles.accuracy import update_accuracy_matrix, value_posteriors
from tests.oracles.date import reference_run
from tests.oracles.dependence import compute_pairwise_dependence
from tests.oracles.independence import independence_probabilities, independence_table
from tests.oracles.indexing import initial_accuracy_matrix, majority_vote
from tests.oracles.support import select_truths, support_counts


@pytest.fixture(scope="module")
def dataset():
    return generate_qatar_living_like(
        seed=7, n_tasks=25, n_workers=18, n_copiers=4, target_claims=320
    )


@pytest.fixture(scope="module")
def index(dataset):
    return DatasetIndex(dataset)


@pytest.fixture(scope="module")
def arrays(index):
    return index.arrays


class TestClaimArraysStructure:
    def test_claim_counts(self, dataset, arrays):
        assert arrays.n_claims == len(dataset.claims)
        assert arrays.task_ptr[-1] == arrays.n_claims
        assert arrays.group_ptr[-1] == arrays.n_claims
        assert arrays.worker_ptr[-1] == arrays.n_claims

    def test_claims_match_index(self, index, arrays):
        for c in range(arrays.n_claims):
            i = int(arrays.claim_worker[c])
            j = int(arrays.claim_task[c])
            value = arrays.group_values[int(arrays.claim_group[c])]
            assert index.claims_by_task[j][i] == value

    def test_groups_match_value_groups(self, index, arrays):
        for j in range(index.n_tasks):
            g0, g1 = int(arrays.task_group_ptr[j]), int(arrays.task_group_ptr[j + 1])
            observed = {}
            for g in range(g0, g1):
                c0, c1 = int(arrays.group_ptr[g]), int(arrays.group_ptr[g + 1])
                observed[arrays.group_values[g]] = tuple(
                    int(w) for w in arrays.claim_worker[c0:c1]
                )
            assert observed == index.value_groups[j]
            # Codes follow sorted value order.
            assert list(observed) == sorted(observed)

    def test_worker_csr_roundtrip(self, index, arrays):
        for i in range(index.n_workers):
            s, e = int(arrays.worker_ptr[i]), int(arrays.worker_ptr[i + 1])
            claims = arrays.worker_claims[s:e]
            assert {int(arrays.claim_task[c]) for c in claims} == set(
                index.claims_by_worker[i]
            )

    def test_pair_tables_match_index(self, index, arrays):
        pairs = list(zip(arrays.pair_a.tolist(), arrays.pair_b.tolist()))
        assert pairs == index.pairs
        for k, pair in enumerate(pairs):
            sl = slice(int(arrays.pair_ptr[k]), int(arrays.pair_ptr[k + 1]))
            assert tuple(arrays.ps_task[sl].tolist()) == index.shared_tasks[pair]
            # The claim back-pointers agree with the pair's workers.
            assert set(arrays.claim_worker[arrays.ps_claim_a[sl]]) == {pair[0]}
            assert set(arrays.claim_worker[arrays.ps_claim_b[sl]]) == {pair[1]}

    def test_majority_codes_match_majority_vote(self, index, arrays):
        assert arrays.truth_values(arrays.majority_codes()) == majority_vote(index)

    def test_truth_code_roundtrip(self, index, arrays):
        truths = majority_vote(index)
        codes = arrays.truth_codes(truths)
        assert arrays.truth_values(codes) == truths

    def test_empty_task_has_no_groups(self):
        dataset = Dataset(
            tasks=(Task(task_id="t0"), Task(task_id="t1")),
            workers=(WorkerProfile(worker_id="w0"),),
            claims={("w0", "t0"): "x"},
        )
        arrays = DatasetIndex(dataset).arrays
        assert arrays.n_claims == 1
        assert int(arrays.task_group_ptr[2] - arrays.task_group_ptr[1]) == 0
        assert arrays.truth_values(arrays.majority_codes()) == ["x", None]


class TestKernelAgreement:
    def test_dependence_kernel(self, index, arrays):
        accuracy = initial_accuracy_matrix(index, 0.5)
        ref = compute_pairwise_dependence(
            index,
            majority_vote(index),
            accuracy,
            copy_prob_r=0.4,
            prior_alpha=0.2,
        )
        vec = dependence_table(
            arrays,
            pairwise_dependence_arrays(
                arrays,
                arrays.majority_codes(),
                np.full(arrays.n_claims, 0.5),
                copy_prob_r=0.4,
                prior_alpha=0.2,
                collision=UniformFalseValues().collision_array(index),
            ),
        )
        assert set(ref) == set(vec)
        for pair in ref:
            assert ref[pair].p_a_to_b == pytest.approx(vec[pair].p_a_to_b, abs=1e-12)
            assert ref[pair].p_b_to_a == pytest.approx(vec[pair].p_b_to_a, abs=1e-12)

    def test_independence_kernel(self, index, arrays):
        accuracy = initial_accuracy_matrix(index, 0.5)
        dep_ref = compute_pairwise_dependence(
            index, majority_vote(index), accuracy, copy_prob_r=0.4, prior_alpha=0.2
        )
        dep_vec = pairwise_dependence_arrays(
            arrays,
            arrays.majority_codes(),
            np.full(arrays.n_claims, 0.5),
            copy_prob_r=0.4,
            prior_alpha=0.2,
            collision=UniformFalseValues().collision_array(index),
        )
        for ordering in ("dependent_first", "independent_first"):
            for mode in ("directed", "total"):
                table = independence_probabilities(
                    index,
                    dep_ref,
                    copy_prob_r=0.4,
                    ordering=ordering,
                    discount_mode=mode,
                )
                flat = independence_flat(
                    arrays,
                    dep_vec,
                    copy_prob_r=0.4,
                    ordering=ordering,
                    discount_mode=mode,
                )
                vec_table = independence_table(arrays, flat)
                assert len(vec_table) == len(table)
                for ref_row, vec_row in zip(table, vec_table):
                    assert set(ref_row) == set(vec_row)
                    for value, scores in ref_row.items():
                        assert set(scores) == set(vec_row[value])
                        for worker, score in scores.items():
                            assert vec_row[value][worker] == pytest.approx(
                                score, abs=1e-12
                            )

    def test_posterior_and_support_kernels(self, index, arrays):
        accuracy = initial_accuracy_matrix(index, 0.5)
        claim_acc = np.full(arrays.n_claims, 0.5)
        model = UniformFalseValues()

        post_ref = value_posteriors(index, accuracy, false_values=model)
        post_vec = posterior_table(
            arrays, plain_posterior_groups(arrays, claim_acc, false_values=model)
        )
        assert len(post_ref) == len(post_vec)
        for ref_row, vec_row in zip(post_ref, post_vec):
            assert set(ref_row) == set(vec_row)
            for v in ref_row:
                assert ref_row[v] == pytest.approx(vec_row[v], abs=1e-12)

        acc_ref = update_accuracy_matrix(index, post_ref)
        group_post = plain_posterior_groups(arrays, claim_acc, false_values=model)
        acc_vec = dense_accuracy(
            arrays, accuracy_flat(arrays, group_post, granularity="worker")
        )
        np.testing.assert_allclose(acc_ref, acc_vec, atol=1e-12, rtol=0)

        ones = [
            {value: {i: 1.0 for i in group} for value, group in groups.items()}
            for groups in index.value_groups
        ]
        support_ref = support_counts(index, acc_ref, ones)
        group_support = support_flat(
            arrays,
            accuracy_flat(arrays, group_post, granularity="worker"),
            np.ones(arrays.n_claims),
        )
        truths_ref = select_truths(support_ref)
        truths_vec = arrays.truth_values(
            select_truth_codes(arrays, group_support)
        )
        assert truths_ref == truths_vec


class TestBackendConfig:
    def test_invalid_backend_rejected(self):
        # There is one implementation per kernel, so no option selects it.
        with pytest.raises(TypeError, match="backend"):
            DateConfig(backend="reference")

    def test_backends_share_public_api(self, dataset, index):
        ref = reference_run(DATE(), dataset, index=index)
        vec = DATE().run(dataset, index=index)
        assert ref.truths == vec.truths
        assert ref.method == vec.method == "DATE"
        assert ref.worker_ids == vec.worker_ids
        assert ref.task_ids == vec.task_ids


class TestFalseDistArrays:
    def test_collision_array_matches_scalars_and_caches(self, index):
        model = UniformFalseValues()
        arr = model.collision_array(index)
        expected = [
            model.collision_probability(j, index) for j in range(index.n_tasks)
        ]
        np.testing.assert_allclose(arr, expected)
        # Default implementation caches per (model, index).  Call the
        # base-class method explicitly: UniformFalseValues overrides it
        # with an uncached closed form.
        class Probe(UniformFalseValues):
            candidate_free = False
            calls = 0

            def collision_probability(self, task_index, index):
                Probe.calls += 1
                return super().collision_probability(task_index, index)

        from repro.core.falsedist import FalseValueDistribution

        probe = Probe()
        first = FalseValueDistribution.collision_array(probe, index)
        again = FalseValueDistribution.collision_array(probe, index)
        assert first is again
        assert Probe.calls == index.n_tasks
        np.testing.assert_allclose(first, model.collision_array(index))

    def test_value_probability_array_matches_scalars(self, index):
        model = UniformFalseValues()
        arrays = index.arrays
        arr = model.value_probability_array(index)
        for g in range(arrays.n_groups):
            expected = model.value_probability(
                int(arrays.group_task[g]), index, arrays.group_values[g], None
            )
            assert arr[g] == pytest.approx(expected)


class TestMajorityVoteArrayNative:
    def test_matches_scalar_semantics(self, dataset, index):
        result = MajorityVote().run(dataset, index=index)
        truths = majority_vote(index)
        expected = {
            index.task_ids[j]: v for j, v in enumerate(truths) if v is not None
        }
        assert result.truths == expected
        for j, task_id in enumerate(index.task_ids):
            groups = index.value_groups[j]
            if not groups:
                assert task_id not in result.support
                continue
            counts = {v: float(len(ws)) for v, ws in groups.items()}
            assert result.support[task_id] == counts
        # Agreement-rate accuracies stay within [0, 1].
        assert np.all(result.accuracy_matrix >= 0.0)
        assert np.all(result.accuracy_matrix <= 1.0)
