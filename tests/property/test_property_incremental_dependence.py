"""Property tests: the incremental dependence engine is exact.

Two contracts from DESIGN.md §12 are pinned, both on random campaigns:

- **Refresh exactness** — :class:`IncrementalDependence` refreshed
  through a random sequence of truth-code flips and accuracy rewrites
  equals a full :func:`pairwise_dependence_arrays` pass over the same
  inputs *bit for bit*, every step.
- **Rebind exactness** — aggregates carried across random index
  extensions (appends, dirty-task overlaps, new workers and tasks mid
  stream) stay bit-identical to a cold engine built on the grown index;
  `OnlineDATE(track_dependence=True)` snapshots inherit the property,
  and tracking leaves the online estimate exactly where an untracked
  estimator puts it.

``derandomize=True`` keeps the corpus stable: this is an acceptance
gate, not a fuzzing lottery.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DateConfig
from repro.core import DatasetIndex
from repro.core.engine import IncrementalDependence, pairwise_dependence_arrays
from repro.streaming import OnlineDATE, replay_batches

from tests.property.test_property_streaming import streamed_campaigns

def _kernel_params(index: DatasetIndex, cfg: DateConfig) -> dict:
    cfg.false_values.prepare(index)
    return dict(
        copy_prob_r=cfg.copy_prob_r,
        prior_alpha=cfg.prior_alpha,
        collision=cfg.false_values.collision_array(index),
        accuracy_clamp=cfg.accuracy_clamp,
    )


def _random_inputs(index: DatasetIndex, rng) -> tuple[np.ndarray, np.ndarray]:
    """Valid random truth codes (-1 allowed) + claim accuracies."""
    arrays = index.arrays
    group_counts = arrays.task_group_ptr[1:] - arrays.task_group_ptr[:-1]
    codes = np.where(
        group_counts > 0,
        rng.integers(-1, np.maximum(group_counts, 1)),
        -1,
    ).astype(np.int64)
    return codes, rng.uniform(0.05, 0.95, arrays.n_claims)


def _assert_bitwise(got, want) -> None:
    np.testing.assert_array_equal(got.p_ab, want.p_ab)
    np.testing.assert_array_equal(got.p_ba, want.p_ba)


class TestRefreshExactness:
    @given(campaign=streamed_campaigns(), seed=st.integers(0, 2**16))
    @settings(max_examples=40, derandomize=True)
    def test_edit_sequence_matches_full_recompute_bitwise(self, campaign, seed):
        dataset, _ = campaign
        index = DatasetIndex(dataset)
        arrays = index.arrays
        params = _kernel_params(index, DateConfig())
        rng = np.random.default_rng(seed)
        codes, acc = _random_inputs(index, rng)
        engine = IncrementalDependence(arrays, **params)
        for _ in range(4):
            got = engine.refresh(codes, acc)
            _assert_bitwise(
                got, pairwise_dependence_arrays(arrays, codes, acc, **params)
            )
            # Edit a random task subset (possibly empty, possibly all).
            touched = np.flatnonzero(
                rng.random(index.n_tasks) < rng.uniform(0.0, 0.8)
            )
            codes = codes.copy()
            acc = acc.copy()
            for j in touched:
                lo = int(arrays.task_group_ptr[j])
                hi = int(arrays.task_group_ptr[j + 1])
                if hi > lo:
                    codes[j] = rng.integers(-1, hi - lo)
                c0, c1 = int(arrays.task_ptr[j]), int(arrays.task_ptr[j + 1])
                acc[c0:c1] = rng.uniform(0.05, 0.95, c1 - c0)

    @given(campaign=streamed_campaigns(), seed=st.integers(0, 2**16))
    @settings(max_examples=20, derandomize=True)
    def test_explicit_touched_set_matches_diffing(self, campaign, seed):
        dataset, _ = campaign
        index = DatasetIndex(dataset)
        arrays = index.arrays
        params = _kernel_params(index, DateConfig())
        rng = np.random.default_rng(seed)
        codes, acc = _random_inputs(index, rng)
        engine = IncrementalDependence(arrays, **params)
        engine.refresh(codes, acc)
        # A superset touched list (here: every task) must give the same
        # bits as the stored-state diff — over-reporting is harmless.
        codes = codes.copy()
        if index.n_tasks:
            j = int(rng.integers(0, index.n_tasks))
            lo = int(arrays.task_group_ptr[j])
            hi = int(arrays.task_group_ptr[j + 1])
            if hi > lo:
                codes[j] = (int(codes[j]) + 1) % (hi - lo)
        got = engine.refresh(
            codes, acc, touched_tasks=np.arange(index.n_tasks, dtype=np.int64)
        )
        _assert_bitwise(
            got, pairwise_dependence_arrays(arrays, codes, acc, **params)
        )


class TestRebindExactness:
    @given(campaign=streamed_campaigns(), n_batches=st.integers(2, 4))
    @settings(max_examples=30, derandomize=True)
    def test_rebind_across_extensions_matches_cold_engine(
        self, campaign, n_batches
    ):
        """Aggregates survive appends / dirty overlaps / new workers."""
        dataset, _ = campaign
        cfg = DateConfig()
        batches = replay_batches(dataset, n_batches)
        index = DatasetIndex(
            type(dataset)(tasks=(), workers=(), claims={})
        )
        index.arrays._pair_tables
        engine = None
        codes = np.empty(0, dtype=np.int64)
        acc = np.empty(0, dtype=np.float64)
        for batch in batches:
            if batch.is_empty:
                continue
            ext = index.extended(
                tasks=batch.tasks, workers=batch.workers, claims=batch.claims
            )
            index = ext.index
            arrays = index.arrays
            new_acc = np.full(arrays.n_claims, cfg.initial_accuracy)
            if ext.claim_map is not None and len(ext.claim_map):
                new_acc[ext.claim_map] = acc
            acc = new_acc
            # Majority codes change only where claims arrived, so the
            # rebind contract (inputs differ on dirty tasks only) holds.
            codes = arrays.majority_codes()
            params = _kernel_params(index, cfg)
            if engine is None:
                engine = IncrementalDependence(arrays, **params)
                got = engine.refresh(codes, acc)
            else:
                got = engine.rebind(
                    arrays,
                    collision=params["collision"],
                    dirty_tasks=np.asarray(ext.dirty_tasks, dtype=np.int64),
                    truth_codes=codes,
                    claim_acc=acc,
                )
            cold = IncrementalDependence(arrays, **params)
            _assert_bitwise(got, cold.refresh(codes, acc))
            _assert_bitwise(
                got, pairwise_dependence_arrays(arrays, codes, acc, **params)
            )

    @given(campaign=streamed_campaigns())
    @settings(max_examples=20, derandomize=True)
    def test_online_snapshot_exact_and_tracking_unobservable(self, campaign):
        dataset, batches = campaign
        tracked = OnlineDATE(track_dependence=True)
        untracked = OnlineDATE()
        for batch in batches:
            tracked.ingest(batch)
            untracked.ingest(batch)
            # Tracking dependence only reads the estimate: the online
            # state is bit-identical to an untracked estimator's.
            assert tracked.truths == untracked.truths
            np.testing.assert_array_equal(
                tracked._claim_acc, untracked._claim_acc
            )
            snap = tracked.dependence_snapshot()
            params = _kernel_params(tracked.index, tracked.config)
            _assert_bitwise(
                snap,
                pairwise_dependence_arrays(
                    tracked.index.arrays,
                    tracked._truth_codes,
                    tracked._claim_acc,
                    **params,
                ),
            )
