"""Unit tests for the online estimator (repro.streaming.online)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DATE, DateConfig, Task, WorkerProfile
from repro.core import DatasetIndex, DependencePosterior
from repro.core.date import worker_mean_accuracy
from repro.errors import ConfigurationError, DataFormatError
from repro.streaming import ClaimBatch, OnlineDATE, replay_batches


class TestLifecycle:
    def test_starts_empty(self):
        online = OnlineDATE()
        assert online.dataset.n_tasks == 0
        assert online.truths == {}
        assert online.worker_accuracy == {}
        assert online.n_batches == 0

    def test_empty_batch_is_noop(self):
        online = OnlineDATE()
        update = online.ingest(ClaimBatch())
        assert update.new_claims == 0
        assert update.dirty_tasks == 0
        assert not update.refreshed
        assert online.n_batches == 0

    def test_invalid_refresh_every(self):
        with pytest.raises(ConfigurationError):
            OnlineDATE(refresh_every=-1)

    def test_duplicate_claim_across_batches_rejected(self):
        online = OnlineDATE()
        online.ingest(
            ClaimBatch(
                claims={("w", "t"): "A"},
                tasks=(Task(task_id="t"),),
                workers=(WorkerProfile(worker_id="w"),),
            )
        )
        with pytest.raises(DataFormatError, match="duplicate claim"):
            online.ingest(ClaimBatch(claims={("w", "t"): "B"}))

    def test_tasks_without_claims_have_no_truths(self):
        online = OnlineDATE()
        online.ingest(ClaimBatch(tasks=(Task(task_id="t"),)))
        assert online.truths == {}
        assert online.dataset.n_tasks == 1

    def test_from_dataset_single_shot(self, qlf_small):
        online = OnlineDATE.from_dataset(qlf_small)
        assert online.n_batches == 1
        assert online.dataset.n_claims == qlf_small.n_claims
        assert set(online.truths)  # estimated something


class TestEstimates:
    def test_refresh_matches_cold_run_exactly(self, qlf_small):
        online = OnlineDATE()
        for batch in replay_batches(qlf_small, 4):
            online.ingest(batch)
        final = online.refresh()
        cold = DATE().run(qlf_small)
        assert final.truths == cold.truths
        assert final.iterations == cold.iterations
        np.testing.assert_allclose(
            final.accuracy_matrix, cold.accuracy_matrix, atol=1e-9, rtol=0
        )

    def test_snapshot_carries_current_state(self, qlf_small):
        online = OnlineDATE()
        for batch in replay_batches(qlf_small, 4):
            online.ingest(batch)
        snapshot = online.snapshot()
        assert snapshot.method == "OnlineDATE"
        assert snapshot.truths == online.truths
        assert snapshot.worker_accuracy == online.worker_accuracy
        assert 0.0 <= snapshot.precision() <= 1.0

    def test_snapshot_is_unchanged_by_later_ingests(self, qlf_small):
        online = OnlineDATE()
        batches = replay_batches(qlf_small, 4)
        for batch in batches[:2]:
            online.ingest(batch)
        snapshot = online.snapshot()
        state = (snapshot.truth_codes.tobytes(), snapshot.claim_acc.tobytes())
        for batch in batches[2:]:
            online.ingest(batch)
        online.refresh()
        assert (snapshot.truth_codes.tobytes(), snapshot.claim_acc.tobytes()) == state
        assert set(snapshot.truths) < set(online.truths)

    def test_periodic_refresh_fires(self, qlf_small):
        online = OnlineDATE(refresh_every=2)
        updates = [online.ingest(b) for b in replay_batches(qlf_small, 4)]
        assert [u.refreshed for u in updates] == [False, True, False, True]
        # After a refresh on the final batch the state equals a cold run.
        cold = DATE().run(online.dataset)
        assert online.truths == cold.truths

    def test_dirty_scope_estimates_cover_ingested_tasks(self, qlf_small):
        online = OnlineDATE()
        batches = replay_batches(qlf_small, 4)
        online.ingest(batches[0])
        claimed = {task_id for (_, task_id) in batches[0].claims}
        assert set(online.truths) == claimed

    def test_new_workers_start_at_epsilon(self):
        config = DateConfig(initial_accuracy=0.5)
        online = OnlineDATE(config)
        online.ingest(
            ClaimBatch(
                claims={("w0", "t0"): "A"},
                tasks=(Task(task_id="t0"),),
                workers=(WorkerProfile(worker_id="w0"),),
            )
        )
        # Register a worker with no claims: reputation reported as 0
        # (no answered tasks), matching the batch result convention.
        online.ingest(ClaimBatch(workers=(WorkerProfile(worker_id="w1"),)))
        assert online.worker_accuracy["w1"] == 0.0


class TestArrayNativeResult:
    def test_tables_are_built_only_on_access(self, qlf_small, monkeypatch):
        from repro.core import date as date_module

        index = DatasetIndex(qlf_small)
        expected = DATE().run(qlf_small, index=index)
        expected_support = expected.support
        expected_dependence = expected.dependence

        def forbidden(*args, **kwargs):
            raise AssertionError("result table built before it was read")

        for name in ("posterior_table", "support_table", "dependence_table"):
            monkeypatch.setattr(date_module, name, forbidden)
        result = DATE().run(qlf_small, index=index)
        assert result.truths == expected.truths
        assert result.confidence == expected.confidence
        assert result.worker_accuracy == expected.worker_accuracy
        with pytest.raises(AssertionError, match="before it was read"):
            result.support
        with pytest.raises(AssertionError, match="before it was read"):
            result.dependence
        monkeypatch.undo()
        assert result.support == expected_support

        # The dependence view is the dict built from the engine's pair
        # arrays, in pair order.
        arrays = index.arrays
        from_pairs = {
            (index.worker_ids[a], index.worker_ids[b]): DependencePosterior(ab, ba)
            for a, b, ab, ba in zip(
                arrays.pair_a.tolist(),
                arrays.pair_b.tolist(),
                result.p_ab.tolist(),
                result.p_ba.tolist(),
            )
        }
        assert result.dependence == from_pairs == expected_dependence
        assert list(result.dependence) == list(from_pairs)
        assert len(from_pairs) == arrays.n_pairs > 0

    def test_worker_accuracy_is_the_per_worker_mean(self, qlf_small):
        # Bit for bit the mean over each worker's tasks, summed in the
        # order the index lists them.
        index = DatasetIndex(qlf_small)
        result = DATE().run(qlf_small, index=index)
        matrix = result.accuracy_matrix
        expected = {
            worker_id: float(np.mean([matrix[i, j] for j in claims]))
            if claims
            else 0.0
            for i, (worker_id, claims) in enumerate(
                zip(index.worker_ids, index.claims_by_worker)
            )
        }
        assert list(result.worker_accuracy) == list(expected)
        assert result.worker_accuracy == expected
        means = worker_mean_accuracy(index.claims_by_worker, matrix)
        assert means.tolist() == list(expected.values())
