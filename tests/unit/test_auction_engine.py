"""Unit tests for the auction engine's building blocks.

Outcome-level equivalence with the scalar oracle lives in
tests/property/test_property_auction_backends.py; these tests pin the
pieces — config validation, the CSR/CSC accuracy index, the trace
layout, and the O(pairs) directed-dependence lookup.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import AuctionConfig, ConfigurationError, ReverseAuction, SOACInstance
from repro.auction.engine import batched_greedy_cover
from repro.auction.soac import SparseAccuracy
from repro.core.engine import (
    DirectedDependenceLookup,
    pairwise_dependence_arrays,
)
from repro.core.falsedist import UniformFalseValues
from repro.core.indexing import DatasetIndex
from tests.oracles.dependence import directed_matrix


class TestAuctionConfig:
    def test_defaults(self):
        config = AuctionConfig()
        assert config.monopoly_payment_factor == 1.0

    def test_unknown_backend_rejected(self):
        # There is one auction engine, so no option selects it.
        with pytest.raises(TypeError, match="backend"):
            AuctionConfig(backend="gpu")
        with pytest.raises(TypeError, match="backend"):
            ReverseAuction(backend="reference")

    def test_low_monopoly_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            AuctionConfig(monopoly_payment_factor=0.9)

    def test_evolve_revalidates(self):
        config = AuctionConfig()
        assert config.evolve(monopoly_payment_factor=2.0).monopoly_payment_factor == 2.0
        with pytest.raises(ConfigurationError):
            config.evolve(monopoly_payment_factor=0.5)

    def test_auction_keyword_overrides(self):
        auction = ReverseAuction(
            AuctionConfig(monopoly_payment_factor=2.0), monopoly_payment_factor=3.0
        )
        assert auction.monopoly_payment_factor == 3.0
        kept = ReverseAuction(AuctionConfig(monopoly_payment_factor=2.0))
        assert kept.monopoly_payment_factor == 2.0

    def test_auction_rejects_bad_override(self):
        with pytest.raises(ConfigurationError):
            ReverseAuction(monopoly_payment_factor=0.5)


class TestSparseAccuracy:
    def test_layout_matches_dense(self):
        rng = np.random.default_rng(5)
        accuracy = np.where(
            rng.random((9, 7)) < 0.4, rng.uniform(0.1, 1.0, (9, 7)), 0.0
        )
        sparse = SparseAccuracy.from_dense(accuracy)
        assert sparse.nnz == int((accuracy > 0).sum())
        for worker in range(9):
            expected = np.nonzero(accuracy[worker])[0]
            np.testing.assert_array_equal(sparse.tasks_of(worker), expected)
        for task in range(7):
            rows = sparse.col_rows[sparse.col_ptr[task] : sparse.col_ptr[task + 1]]
            np.testing.assert_array_equal(rows, np.nonzero(accuracy[:, task])[0])

    def test_workers_on_unions_columns(self):
        accuracy = np.array(
            [
                [0.5, 0.0, 0.0],
                [0.0, 0.5, 0.0],
                [0.5, 0.5, 0.0],
                [0.0, 0.0, 0.5],
            ]
        )
        sparse = SparseAccuracy.from_dense(accuracy)
        np.testing.assert_array_equal(
            sparse.workers_on(np.array([0, 1])), [0, 1, 2]
        )
        np.testing.assert_array_equal(sparse.workers_on(np.array([2])), [3])
        assert sparse.workers_on(np.array([], dtype=np.int64)).size == 0

    def test_cached_on_instance(self, soac_medium):
        assert soac_medium.sparse_accuracy is soac_medium.sparse_accuracy


class TestCoverTrace:
    def test_trace_shapes_and_rounds(self, soac_medium):
        trace = batched_greedy_cover(soac_medium)
        rounds = trace.n_rounds
        assert trace.winners.shape == (rounds,)
        assert trace.residuals.shape == (rounds, soac_medium.n_tasks)
        assert trace.scores.shape == (rounds, soac_medium.n_workers)
        # Round 0 starts from the raw requirements.
        np.testing.assert_array_equal(
            trace.residuals[0], soac_medium.requirements
        )
        # The recorded score of each selected winner is its marginal at
        # that residual, computed exactly as the reference does.
        for r in range(rounds):
            winner = trace.winners[r]
            expected = np.minimum(
                trace.residuals[r], soac_medium.accuracy[winner]
            ).sum()
            assert trace.scores[r, winner] == expected

    def test_empty_requirements_trace(self):
        instance = SOACInstance(
            worker_ids=("w0",),
            task_ids=("t0",),
            requirements=np.array([0.0]),
            accuracy=np.array([[0.9]]),
            bids=np.array([1.0]),
            costs=np.array([1.0]),
            task_values=np.array([5.0]),
        )
        trace = batched_greedy_cover(instance)
        assert trace.n_rounds == 0
        assert trace.residuals.shape == (0, 1)
        assert trace.scores.shape == (0, 1)


class TestDirectedDependenceLookup:
    def _dependence(self, dataset):
        index = DatasetIndex(dataset)
        arrays = index.arrays
        dependence = pairwise_dependence_arrays(
            arrays,
            arrays.majority_codes(),
            np.full(arrays.n_claims, 0.5),
            copy_prob_r=0.4,
            prior_alpha=0.2,
            collision=UniformFalseValues().collision_array(index),
        )
        return arrays, dependence

    def test_gather_matches_dense_matrix(self, qlf_small):
        arrays, dependence = self._dependence(qlf_small)
        dense = directed_matrix(arrays, dependence)
        n = arrays.index.n_workers
        src, dst = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        lookup = DirectedDependenceLookup.build(arrays, dependence)
        np.testing.assert_array_equal(lookup.gather(src, dst), dense)

    def test_memory_is_pairs_not_squared(self, qlf_small):
        arrays, dependence = self._dependence(qlf_small)
        lookup = DirectedDependenceLookup.build(arrays, dependence)
        assert lookup.keys.shape == (2 * arrays.n_pairs,)
        assert lookup.values.shape == (2 * arrays.n_pairs,)

    def test_empty_pairs(self, tiny_dataset):
        dataset = tiny_dataset.subset(worker_ids=["w5"])
        arrays = DatasetIndex(dataset).arrays
        from repro.core.engine import DependenceArrays

        dependence = DependenceArrays(
            p_ab=np.empty(0), p_ba=np.empty(0)
        )
        lookup = DirectedDependenceLookup.build(arrays, dependence)
        out = lookup.gather(np.array([[0]]), np.array([[0]]))
        np.testing.assert_array_equal(out, [[0.0]])
