"""Online truth discovery: DATE over a stream of claim batches.

:class:`OnlineDATE` keeps one long-lived campaign estimate current as
claims arrive, without paying a cold re-encode + full re-run per batch:

1. **Incremental ingestion** — each batch extends the campaign's
   :class:`~repro.core.indexing.DatasetIndex` through its append path,
   which re-encodes only the *dirty* tasks (tasks receiving claims,
   plus appended tasks) and splices every clean CSR segment across.
   Per-claim accuracy state is carried over via the extension's claim
   position map.
2. **Dirty-scope re-estimation** — DATE runs on the sub-campaign
   induced by the batch's dirty tasks only (all claims on those tasks,
   the workers providing them), warm-started from the current truths
   and worker reputations, so the per-batch cost is O(affected
   segments) instead of O(campaign).
3. **Periodic full refresh** — the dirty-scope pass is a local
   approximation: new evidence on one task can, through worker
   reputations and copier posteriors, shift estimates elsewhere.
   :meth:`OnlineDATE.refresh` (run automatically every
   ``refresh_every`` batches, and at the end of a replay) re-runs DATE
   cold over the whole maintained index, restoring *exactly* the
   batch-mode answer: after a refresh the estimate equals
   ``DATE(config).run(full_dataset)`` bit for bit, because it is the
   same computation over an index pinned equivalent to a cold rebuild.

See DESIGN.md §8 for the invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from ..core.config import DateConfig
from ..core.date import TruthDiscoveryResult, build_result
from ..core.engine import DependenceArrays, IncrementalDependence
from ..core.indexing import DatasetIndex, _concat_ranges
from ..discovery import canonical_algorithm, make_discoverer
from ..errors import ConfigurationError
from ..types import Dataset
from .ingest import ClaimBatch

__all__ = ["OnlineDATE", "OnlineUpdate"]


@dataclass(frozen=True)
class OnlineUpdate:
    """What one :meth:`OnlineDATE.ingest` call did.

    Attributes
    ----------
    batch:
        1-based index of the ingested batch.
    new_tasks / new_workers / new_claims:
        Sizes of the batch delta.
    dirty_tasks:
        Number of task segments re-encoded and re-estimated.
    iterations:
        DATE iterations spent on this batch — the dirty-scope
        re-estimation, or the full refresh when one fired (0 when the
        batch carried no claims).
    refreshed:
        Whether this ingest triggered a periodic full refresh (which
        then replaces the dirty-scope pass entirely).
    """

    batch: int
    new_tasks: int
    new_workers: int
    new_claims: int
    dirty_tasks: int
    iterations: int
    refreshed: bool


class OnlineDATE:
    """A long-lived, incrementally updated DATE estimator.

    >>> from repro.datasets import generate_qatar_living_like
    >>> from repro.streaming import replay_batches
    >>> dataset = generate_qatar_living_like(seed=3, n_tasks=40,
    ...     n_workers=20, n_copiers=5, target_claims=600)
    >>> online = OnlineDATE()
    >>> for batch in replay_batches(dataset, 4):
    ...     _ = online.ingest(batch)
    >>> final = online.refresh()
    >>> final.truths == DATE().run(dataset).truths
    True

    Parameters
    ----------
    config:
        DATE hyperparameters, shared by the dirty-scope passes and the
        full refreshes.
    refresh_every:
        Run a full refresh automatically after every N ingested
        batches; 0 (default) refreshes only on explicit
        :meth:`refresh` calls.
    algorithm:
        Name of the truth-discovery zoo member driving both the
        dirty-scope passes and the full refreshes (default ``DATE``;
        see :func:`repro.discovery.list_algorithms`).  Algorithms
        without a warm-start path simply re-estimate the dirty scope
        cold — the refresh exactness guarantee is unchanged.
    track_dependence:
        Maintain campaign-level pairwise dependence posteriors
        incrementally across batches
        (:class:`~repro.core.engine.IncrementalDependence`): each
        ingest carries the untouched rows' cached contributions across
        the index extension and re-scores only the dirty tasks' rows,
        so :meth:`dependence_snapshot` stays bit-identical to a full
        recompute at a fraction of its cost (DESIGN.md §12).  Off by
        default — the aggregates cost O(pair rows) memory.

    The vectorized dirty-scope sub-runs always use the
    ``stable_dependence`` fast path: it is pinned bit-identical to the
    full per-iteration recompute, so it is a pure cost saving and never
    observable in results.
    """

    def __init__(
        self,
        config: DateConfig | None = None,
        *,
        refresh_every: int = 0,
        track_dependence: bool = False,
        algorithm: str = "DATE",
    ):
        if refresh_every < 0:
            raise ConfigurationError(
                f"refresh_every must be >= 0, got {refresh_every}"
            )
        self._config = config or DateConfig()
        self._sub_config = self._config.evolve(stable_dependence=True)
        self._algorithm = canonical_algorithm(algorithm)
        self._discoverer = make_discoverer(
            self._algorithm, date_config=self._config
        )
        self._sub_discoverer = make_discoverer(
            self._algorithm, date_config=self._sub_config
        )
        self.refresh_every = refresh_every
        self._track_dependence = track_dependence
        self._engine: IncrementalDependence | None = None
        self._index = DatasetIndex(Dataset(tasks=(), workers=(), claims={}))
        # The estimate, array-native over the maintained index: the
        # truth's value code per task (-1: none), that value's posterior
        # per task, and the accuracy per claim.
        self._truth_codes = np.empty(0, dtype=np.int64)
        self._confidence = np.empty(0, dtype=np.float64)
        self._claim_acc = np.empty(0, dtype=np.float64)
        self._batches = 0

    @classmethod
    def from_dataset(
        cls,
        dataset: Dataset,
        config: DateConfig | None = None,
        **kwargs,
    ) -> "OnlineDATE":
        """Seed an online estimator with an existing campaign snapshot."""
        online = cls(config, **kwargs)
        online.ingest(
            ClaimBatch(
                claims=dataset.claims, tasks=dataset.tasks, workers=dataset.workers
            )
        )
        return online

    # -- read side -------------------------------------------------------

    @property
    def config(self) -> DateConfig:
        return self._config

    @property
    def algorithm(self) -> str:
        """Canonical name of the zoo member driving this estimator."""
        return self._algorithm

    @property
    def dataset(self) -> Dataset:
        """The full campaign accumulated so far."""
        return self._index.dataset

    @property
    def index(self) -> DatasetIndex:
        """The incrementally maintained index over :attr:`dataset`."""
        return self._index

    @property
    def n_batches(self) -> int:
        return self._batches

    @property
    def truths(self) -> dict[str, str]:
        """Current ``task_id -> estimated truth``."""
        return self.snapshot().truths

    @property
    def confidence(self) -> dict[str, float]:
        """Current ``task_id -> posterior of the selected truth``."""
        return self.snapshot().confidence

    @property
    def worker_accuracy(self) -> dict[str, float]:
        """Current ``worker_id -> mean accuracy`` (reputation)."""
        return self.snapshot().worker_accuracy

    def snapshot(self) -> TruthDiscoveryResult:
        """The current estimate as a standard result bundle, over copies.

        Only the selected values' posteriors are tracked (other groups
        read 0), and no support or dependence tables: those are
        campaign-global and come with the result of :meth:`refresh`.
        """
        index = self._index
        arrays = index.arrays
        codes = self._truth_codes.copy()
        answered = np.flatnonzero(codes >= 0)
        group_post = np.zeros(arrays.n_groups, dtype=np.float64)
        group_post[arrays.task_group_ptr[answered] + codes[answered]] = (
            self._confidence[answered]
        )
        return build_result(
            index,
            codes,
            self._claim_acc.copy(),
            group_post,
            iterations=0,
            converged=True,
            method="OnlineDATE",
        )

    # -- write side ------------------------------------------------------

    def validate(self, batch: ClaimBatch) -> None:
        """Check ``batch`` against the campaign without applying it.

        Raises :class:`~repro.errors.DataFormatError` for exactly the
        violations :meth:`ingest` would reject — unknown task/worker
        references, duplicate claims, out-of-domain values — and
        touches no state.  The durable store runs this before the
        write-ahead journal append, so a batch destined for a 400 never
        becomes a journal record that would poison every later replay.
        """
        if batch.is_empty:
            return
        self._index.validate_extension(
            tasks=batch.tasks, workers=batch.workers, claims=batch.claims
        )

    def ingest(self, batch: ClaimBatch) -> OnlineUpdate:
        """Apply one claim batch and re-estimate the affected tasks."""
        if batch.is_empty:
            return OnlineUpdate(
                batch=self._batches,
                new_tasks=0,
                new_workers=0,
                new_claims=0,
                dirty_tasks=0,
                iterations=0,
                refreshed=False,
            )
        self._index.arrays  # materialize so the extension splices + maps
        ext = self._index.extended(
            tasks=batch.tasks, workers=batch.workers, claims=batch.claims
        )
        claim_acc = np.full(
            ext.index.arrays.n_claims,
            self._config.initial_accuracy,
            dtype=np.float64,
        )
        if ext.claim_map is not None and len(ext.claim_map):
            claim_acc[ext.claim_map] = self._claim_acc
        confidence = np.zeros(ext.index.n_tasks, dtype=np.float64)
        confidence[: len(self._confidence)] = self._confidence
        self._truth_codes = self._extend_truth_codes(ext)
        self._index = ext.index
        self._claim_acc = claim_acc
        self._confidence = confidence
        self._batches += 1
        if self._track_dependence:
            if self._engine is not None:
                # Carry the untouched rows' cached contributions across
                # the extension; only the dirty tasks' rows re-score.
                # Valid because the merge step below writes truths and
                # claim accuracies for dirty tasks only, so every other
                # row's inputs are bit-frozen between batches.
                self._engine.rebind(
                    self._index.arrays,
                    collision=self._collision_array(),
                    dirty_tasks=np.asarray(ext.dirty_tasks, dtype=np.int64),
                    truth_codes=self._truth_codes,
                    claim_acc=self._claim_acc,
                )

        iterations = 0
        refreshed = (
            self.refresh_every > 0 and self._batches % self.refresh_every == 0
        )
        if refreshed:
            # The full refresh subsumes the dirty-scope pass — running
            # both would just throw the sub-run's result away.
            iterations = self.refresh().iterations
        else:
            dirty = [
                int(j)
                for j in ext.dirty_tasks
                if self._index.claims_by_task[int(j)]
            ]
            if dirty:
                sub = _subcampaign(self._index, dirty)
                result = self._sub_discoverer.run(sub, warm_start=self.snapshot())
                self._merge(dirty, result)
                iterations = result.iterations
            if self._engine is not None:
                # Fold the merged dirty-task results back in (a
                # stored-state diff finds exactly those tasks).
                self._engine.refresh(self._truth_codes, self._claim_acc)
        return OnlineUpdate(
            batch=self._batches,
            new_tasks=len(batch.tasks),
            new_workers=len(batch.workers),
            new_claims=batch.n_claims,
            dirty_tasks=len(ext.dirty_tasks),
            iterations=iterations,
            refreshed=refreshed,
        )

    def refresh(self) -> TruthDiscoveryResult:
        """Full cold re-estimation over the maintained index.

        Restores exactness: the returned result is identical to
        ``DATE(config).run(dataset)`` on the campaign accumulated so
        far (the incremental index is pinned equivalent to a cold
        rebuild), and the online state adopts it wholesale.
        """
        index = self._index
        result = self._discoverer.run(index.dataset, index=index)
        return self.adopt_refresh(result)

    def adopt_refresh(self, result: TruthDiscoveryResult) -> TruthDiscoveryResult:
        """Adopt an externally computed full refresh wholesale.

        This is the warm-restart entry point: a refresh persisted by
        the run ledger for *exactly this campaign content and config*
        (the ledger's snapshot fingerprint guarantees it) replaces the
        re-estimation.  The result must cover the maintained index —
        mismatched worker/task orderings raise rather than silently
        corrupting the per-claim accuracy state.
        """
        index = self._index
        arrays = index.arrays
        if (
            result.worker_ids != tuple(index.worker_ids)
            or result.task_ids != tuple(index.task_ids)
            or len(result.claim_acc) != arrays.n_claims
        ):
            raise ConfigurationError(
                "adopted refresh does not match the campaign: worker/task "
                "orderings or claim counts differ from the maintained index"
            )
        codes = result.truth_codes
        answered = np.flatnonzero(codes >= 0)
        confidence = np.zeros(index.n_tasks, dtype=np.float64)
        if result.group_post is not None:
            confidence[answered] = result.group_post[
                arrays.task_group_ptr[answered] + codes[answered]
            ]
        self._truth_codes = codes.copy()
        self._confidence = confidence
        self._claim_acc = result.claim_acc.copy()
        # A refresh rewrites accuracies campaign-wide; the next
        # snapshot/ingest rebuilds the dependence aggregates from scratch.
        self._engine = None
        return result

    def dependence_snapshot(self) -> DependenceArrays:
        """Current campaign-level pairwise dependence posteriors.

        Requires ``track_dependence=True``.  The first call (and the
        first after a full refresh) pays one full scoring pass; later
        calls re-score only what ingests dirtied since — bit-identical
        to recomputing from the current truths and accuracies.
        """
        if not self._track_dependence:
            raise ConfigurationError(
                "dependence_snapshot requires OnlineDATE(track_dependence=True)"
            )
        if self._engine is None:
            self._engine = IncrementalDependence(
                self._index.arrays,
                copy_prob_r=self._config.copy_prob_r,
                prior_alpha=self._config.prior_alpha,
                collision=self._collision_array(),
                accuracy_clamp=self._config.accuracy_clamp,
            )
        self._engine.refresh(self._truth_codes, self._claim_acc)
        return self._engine.posteriors()

    # -- internals -------------------------------------------------------

    def _collision_array(self) -> np.ndarray:
        fv = self._config.false_values
        fv.prepare(self._index)
        return fv.collision_array(self._index)

    def _extend_truth_codes(self, ext) -> np.ndarray:
        """Carry truth codes across an index extension.

        Task positions are stable under extension, and a clean task's
        value groups are spliced verbatim, so old codes stay valid
        everywhere except the dirty tasks — whose codes are re-derived
        from their (unchanged) truth values against the re-encoded
        groups.  Called before :attr:`_index` moves to ``ext.index``.
        """
        old, new = self._index.arrays, ext.index.arrays
        codes = np.full(ext.index.n_tasks, -1, dtype=np.int64)
        codes[: len(self._truth_codes)] = self._truth_codes
        for j in ext.dirty_tasks.tolist():
            if j < len(self._truth_codes) and self._truth_codes[j] >= 0:
                value = old.group_values[old.task_group_ptr[j] + self._truth_codes[j]]
                g0, g1 = new.task_group_ptr[j], new.task_group_ptr[j + 1]
                codes[j] = new.group_values[g0:g1].index(value)
        return codes

    def _merge(self, dirty: list[int], result: TruthDiscoveryResult) -> None:
        """Fold a dirty-scope result back into the campaign state.

        The sub-campaign holds every claim of the dirty tasks, its tasks
        in ``dirty`` order and its workers in campaign order.  So each
        dirty task has the same value codes there, and its claims sit in
        the same order: the result's arrays copy straight across.
        """
        arrays = self._index.arrays
        tasks = np.asarray(dirty, dtype=np.int64)
        starts = arrays.task_ptr[tasks]
        self._claim_acc[_concat_ranges(starts, arrays.task_ptr[tasks + 1] - starts)] = (
            result.claim_acc
        )
        self._truth_codes[tasks] = result.truth_codes
        confidence = result.confidence
        self._confidence[tasks] = [
            confidence.get(task_id, 0.0) for task_id in result.task_ids
        ]


def _subcampaign(index: DatasetIndex, dirty: list[int]) -> Dataset:
    """The sub-dataset induced by the dirty tasks, built in O(affected).

    Mirrors :meth:`Dataset.subset` semantics (copy sources outside the
    kept worker set are dropped) without its full-campaign scan.
    """
    dataset = index.dataset
    tasks = tuple(dataset.tasks[j] for j in dirty)
    worker_positions = sorted(
        {i for j in dirty for i in index.claims_by_task[j]}
    )
    keep_ids = {index.worker_ids[i] for i in worker_positions}
    workers = []
    for i in worker_positions:
        worker = dataset.worker_by_id[index.worker_ids[i]]
        sources = tuple(s for s in worker.sources if s in keep_ids)
        if worker.is_copier and not sources:
            worker = dc_replace(
                worker, is_copier=False, sources=(), copy_prob=0.0
            )
        elif sources != worker.sources:
            worker = dc_replace(worker, sources=sources)
        workers.append(worker)
    claims = {
        (index.worker_ids[i], index.task_ids[j]): value
        for j in dirty
        for i, value in index.claims_by_task[j].items()
    }
    return Dataset(tasks=tasks, workers=tuple(workers), claims=claims)
