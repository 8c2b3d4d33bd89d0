"""Unit tests for the online estimator (repro.streaming.online)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DATE, DateConfig, Task, WorkerProfile
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


class TestLeanRun:
    def test_lean_matches_full_estimates(self, qlf_small):
        full = DATE().run(qlf_small)
        lean = DATE().run(qlf_small, lean=True)
        assert lean.truths == full.truths
        assert lean.iterations == full.iterations
        np.testing.assert_allclose(
            lean.accuracy_matrix, full.accuracy_matrix, atol=0
        )
        assert lean.confidence == full.confidence
        assert lean.worker_accuracy == full.worker_accuracy

    def test_lean_skips_tables(self, qlf_small):
        lean = DATE().run(qlf_small, lean=True)
        assert lean.support == {}
        assert lean.dependence == {}
