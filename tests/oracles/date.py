"""Scalar oracle runs of Alg. 1: DATE, ED and NC over the step oracles.

:func:`reference_run` takes a configured product algorithm — a
:class:`~repro.core.date.DATE`, an
:class:`~repro.baselines.enumerate_dependence.EnumerateDependence` or a
:class:`~repro.baselines.no_copier.NoCopier` — and recomputes its
result with the scalar per-element step oracles of this package, over
the dense accuracy matrix and string-keyed tables the equations are
written in.  The result bundle has the same shape as the product's, so
the equivalence suites compare the two field by field.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.enumerate_dependence import (
    EnumerateDependence,
    _closed_form_independence,
    _enumerated_independence,
)
from repro.baselines.no_copier import NoCopier
from repro.core.date import TruthDiscoveryResult, build_result, iterate_truths
from repro.core.dependence import DependencePosterior
from repro.core.engine import DependenceArrays
from repro.core.indexing import DatasetIndex
from repro.types import Dataset

from .accuracy import (
    discounted_value_posteriors,
    update_accuracy_matrix,
    value_posteriors,
)
from .dependence import compute_pairwise_dependence, directed_probability
from .independence import IndependenceTable, independence_probabilities
from .indexing import initial_accuracy_matrix, majority_vote
from .support import select_truths, support_counts

__all__ = ["enumerated_independence", "reference_run"]


def reference_run(
    algorithm,
    dataset: Dataset,
    *,
    index: DatasetIndex | None = None,
    warm_start: TruthDiscoveryResult | None = None,
) -> TruthDiscoveryResult:
    """``algorithm.run(dataset, ...)``'s result, computed by the oracles."""
    index = index or DatasetIndex(dataset)
    if isinstance(algorithm, NoCopier):
        return _run_no_copier(algorithm, index)
    return _run_date(algorithm, index, warm_start)


def enumerated_independence(
    index: DatasetIndex,
    dependence: dict[tuple[int, int], DependencePosterior],
    *,
    copy_prob_r: float,
    exact_enumeration_limit: int,
) -> IndependenceTable:
    """ED's step 2: enumerate every co-provider's copy edge per worker."""
    r = copy_prob_r
    table: IndependenceTable = []
    for j in range(index.n_tasks):
        per_value: dict[str, dict[int, float]] = {}
        for value, group in index.value_groups[j].items():
            scores: dict[int, float] = {}
            for worker in group:
                edge_probs = [
                    r * directed_probability(dependence, worker, other)
                    for other in group
                    if other != worker
                ]
                if len(edge_probs) <= exact_enumeration_limit:
                    scores[worker] = _enumerated_independence(edge_probs)
                else:
                    scores[worker] = _closed_form_independence(edge_probs)
            per_value[value] = scores
        table.append(per_value)
    return table


def _run_date(
    algorithm,
    index: DatasetIndex,
    warm_start: TruthDiscoveryResult | None,
) -> TruthDiscoveryResult:
    """Alg. 1 over the scalar step oracles (DATE, or ED's step 2)."""
    cfg = algorithm.config
    cfg.false_values.prepare(index)

    if isinstance(algorithm, EnumerateDependence):
        def independence_step(dependence):
            return enumerated_independence(
                index,
                dependence,
                copy_prob_r=cfg.copy_prob_r,
                exact_enumeration_limit=algorithm.exact_enumeration_limit,
            )
    else:
        def independence_step(dependence):
            return independence_probabilities(
                index,
                dependence,
                copy_prob_r=cfg.copy_prob_r,
                ordering=cfg.ordering,
                discount_mode=cfg.discount_mode,
            )

    truths = majority_vote(index)
    accuracy = initial_accuracy_matrix(index, cfg.initial_accuracy)
    if warm_start is not None:
        for j, task_id in enumerate(index.task_ids):
            carried = warm_start.truths.get(task_id)
            if carried is not None and carried in index.value_groups[j]:
                truths[j] = carried
        for i, worker_id in enumerate(index.worker_ids):
            carried_accuracy = warm_start.worker_accuracy.get(worker_id)
            if carried_accuracy is None or carried_accuracy <= 0.0:
                continue
            for j in index.claims_by_worker[i]:
                accuracy[i, j] = carried_accuracy

    dependence: dict[tuple[int, int], DependencePosterior] = {}
    posteriors = None
    support = None

    def step(truths):
        nonlocal dependence, posteriors, support, accuracy
        dependence = compute_pairwise_dependence(
            index,
            truths,
            accuracy,
            copy_prob_r=cfg.copy_prob_r,
            prior_alpha=cfg.prior_alpha,
            false_values=cfg.false_values,
            accuracy_clamp=cfg.accuracy_clamp,
        )
        independence = independence_step(dependence)
        if cfg.discounted_posterior:
            posteriors = discounted_value_posteriors(
                index,
                accuracy,
                independence,
                false_values=cfg.false_values,
                accuracy_clamp=cfg.accuracy_clamp,
            )
        else:
            posteriors = value_posteriors(
                index,
                accuracy,
                false_values=cfg.false_values,
                accuracy_clamp=cfg.accuracy_clamp,
            )
        accuracy = update_accuracy_matrix(
            index, posteriors, granularity=cfg.granularity
        )
        support = support_counts(
            index,
            accuracy,
            independence,
            similarity=cfg.similarity,
            similarity_weight=cfg.similarity_weight,
        )
        return select_truths(support)

    truths, iterations, converged = iterate_truths(
        truths,
        step,
        max_iterations=cfg.max_iterations,
        state_key=tuple,
        label="DATE",
    )
    return _encoded_result(
        index,
        truths,
        accuracy,
        posteriors,
        support,
        dependence,
        iterations=iterations,
        converged=converged,
        method=algorithm.method_name,
    )


def _run_no_copier(algorithm: NoCopier, index: DatasetIndex) -> TruthDiscoveryResult:
    """NC over the scalar step oracles: every ``I_v^j(i)`` fixed at 1."""
    cfg = algorithm.config
    cfg.false_values.prepare(index)

    truths = majority_vote(index)
    accuracy = initial_accuracy_matrix(index, cfg.initial_accuracy)
    independence = [
        {value: {i: 1.0 for i in group} for value, group in groups.items()}
        for groups in index.value_groups
    ]

    posteriors: list[dict[str, float]] = []
    support: list[dict[str, float]] = []

    def step(truths):
        nonlocal posteriors, support, accuracy
        posteriors = value_posteriors(
            index,
            accuracy,
            false_values=cfg.false_values,
            accuracy_clamp=cfg.accuracy_clamp,
        )
        accuracy = update_accuracy_matrix(
            index, posteriors, granularity=cfg.granularity
        )
        support = support_counts(
            index,
            accuracy,
            independence,
            similarity=cfg.similarity,
            similarity_weight=cfg.similarity_weight,
        )
        return select_truths(support)

    truths, iterations, converged = iterate_truths(
        truths,
        step,
        max_iterations=cfg.max_iterations,
        state_key=tuple,
        label="NC",
    )
    return _encoded_result(
        index,
        truths,
        accuracy,
        posteriors,
        support,
        None,
        iterations=iterations,
        converged=converged,
        method=algorithm.method_name,
    )


def _encoded_result(
    index: DatasetIndex,
    truths: list[str | None],
    accuracy: np.ndarray,
    posteriors: list[dict[str, float]] | None,
    support: list[dict[str, float]] | None,
    dependence: dict[tuple[int, int], DependencePosterior] | None,
    **meta,
) -> TruthDiscoveryResult:
    """The oracle's string-keyed tables, encoded into the product's arrays.

    Results have one constructor, :func:`build_result`, over the index's
    array layout; this is the only place the oracles translate into it.
    """
    arrays = index.arrays
    group_tasks = arrays.group_task.tolist()

    def per_group(table):
        if not table:
            return None
        return np.array(
            [table[j][arrays.group_values[g]] for g, j in enumerate(group_tasks)],
            dtype=np.float64,
        )

    pairs_dependence = None
    if dependence is not None:
        pairs = zip(arrays.pair_a.tolist(), arrays.pair_b.tolist())
        posts = [dependence[pair] for pair in pairs]
        pairs_dependence = DependenceArrays(
            p_ab=np.array([p.p_a_to_b for p in posts], dtype=np.float64),
            p_ba=np.array([p.p_b_to_a for p in posts], dtype=np.float64),
        )
    return build_result(
        index,
        arrays.truth_codes(truths),
        accuracy[arrays.claim_worker, arrays.claim_task],
        per_group(posteriors),
        per_group(support),
        pairs_dependence,
        **meta,
    )
