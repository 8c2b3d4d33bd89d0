"""Scalar oracle for step 3 of DATE (part 1): posteriors and accuracies.

Per-task, per-candidate transcriptions of Eqs. 17-20, kept as the
equivalence oracle for the posterior and accuracy kernels of
:mod:`repro.core.engine`.

For one task ``t_j`` with claim set ``D_j``, the likelihood of the data
given that candidate value ``v`` is true (Eq. 18, generalized by
Eq. 23) is

    P(D_j | v true) = Π_{i ∈ W_v} A_i · Π_{i ∉ W_v} (1 - A_i) · q_j(v_i | v)

where ``q_j(v_i | v)`` is the false-value model's probability of value
``v_i`` given that ``v`` is the truth (``1/num_j`` under the uniform
assumption, recovering Eq. 18 exactly).  With a uniform prior over
values (the paper's β), Bayes' rule gives the posterior of Eq. 20.

The worker accuracy (Eq. 17) is the average posterior probability of
the values the worker provided.  The matrix ``A`` is per (worker, task);
see DESIGN.md §4 for the two supported granularities:

- ``"worker"`` (default): one accuracy per worker — the mean posterior
  over its answered tasks, broadcast to those tasks;
- ``"task"``: the per-task posterior of the worker's claim.

Workers keep 0 accuracy on tasks they did not answer (no coverage in
the auction).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.falsedist import FalseValueDistribution, UniformFalseValues
from repro.core.indexing import DatasetIndex

__all__ = [
    "value_posteriors",
    "discounted_value_posteriors",
    "update_accuracy_matrix",
]

_MIN_PROB = 1e-12

#: Posterior tables: task index -> {value: P(v true | D_j)}.
PosteriorTable = list[dict[str, float]]

_GRANULARITIES = ("worker", "task")


def value_posteriors(
    index: DatasetIndex,
    accuracy: np.ndarray,
    *,
    false_values: FalseValueDistribution | None = None,
    accuracy_clamp: tuple[float, float] = (0.01, 0.99),
) -> PosteriorTable:
    """Compute ``P(v true | D_j)`` for every task and observed value.

    Probabilities within one task sum to 1 (there is exactly one true
    value among the observed candidates, Eq. 19).  Tasks without claims
    get an empty table.
    """
    false_values = false_values or UniformFalseValues()
    lo, hi = accuracy_clamp
    table: PosteriorTable = []
    for j in range(index.n_tasks):
        groups = index.value_groups[j]
        if not groups:
            table.append({})
            continue
        claims = index.claims_by_task[j]
        log_scores: dict[str, float] = {}
        for candidate in groups:
            log_score = 0.0
            for worker, value in claims.items():
                acc = min(max(accuracy[worker, j], lo), hi)
                if value == candidate:
                    log_score += math.log(acc)
                else:
                    q = false_values.value_probability(j, index, value, candidate)
                    log_score += math.log(max((1.0 - acc) * q, _MIN_PROB))
            log_scores[candidate] = log_score
        peak = max(log_scores.values())
        weights = {v: math.exp(s - peak) for v, s in log_scores.items()}
        total = sum(weights.values())
        table.append({v: w / total for v, w in weights.items()})
    return table


def discounted_value_posteriors(
    index: DatasetIndex,
    accuracy: np.ndarray,
    independence,
    *,
    false_values: FalseValueDistribution | None = None,
    accuracy_clamp: tuple[float, float] = (0.01, 0.99),
) -> PosteriorTable:
    """Value posteriors with each vote's log-odds weighted by ``I_v^j(i)``.

    Alg. 1 line 23 as literally written ignores the dependence discount
    when computing ``P(v)``, so copier-inflated majorities corrupt the
    accuracy estimates (Eq. 17) even when step 2 has already identified
    the copiers — the Table 1 example is then unrecoverable.  Following
    Dong et al. [15], whose vote count this generalizes, each supporting
    worker contributes

        I_v^j(i) · ln( A_i / ((1 - A_i) · q_j(v)) )

    to candidate ``v``'s log-score (``q_j`` the false-value probability,
    ``1/num_j`` under the uniform assumption), and the scores are
    softmax-normalized per task.  With all ``I = 1`` this equals Eq. 20
    exactly, so the undiscounted behaviour is the special case.

    ``independence`` is the step-2 table
    (:data:`tests.oracles.independence.IndependenceTable`).
    """
    false_values = false_values or UniformFalseValues()
    lo, hi = accuracy_clamp
    table: PosteriorTable = []
    for j in range(index.n_tasks):
        groups = index.value_groups[j]
        if not groups:
            table.append({})
            continue
        log_scores: dict[str, float] = {}
        for candidate, group in groups.items():
            q = max(
                false_values.value_probability(j, index, candidate, None), _MIN_PROB
            )
            score = 0.0
            scores_by_worker = independence[j][candidate]
            for worker in group:
                acc = min(max(accuracy[worker, j], lo), hi)
                score += scores_by_worker[worker] * (
                    math.log(acc) - math.log(max((1.0 - acc) * q, _MIN_PROB))
                )
            log_scores[candidate] = score
        peak = max(log_scores.values())
        weights = {v: math.exp(s - peak) for v, s in log_scores.items()}
        total = sum(weights.values())
        table.append({v: w / total for v, w in weights.items()})
    return table


def update_accuracy_matrix(
    index: DatasetIndex,
    posteriors: PosteriorTable,
    *,
    granularity: str = "worker",
) -> np.ndarray:
    """Refine the accuracy matrix ``A`` from the value posteriors (Eq. 17).

    Returns a dense ``n_workers x n_tasks`` matrix with zeros for
    unanswered (worker, task) pairs.
    """
    if granularity not in _GRANULARITIES:
        raise ValueError(
            f"granularity must be one of {_GRANULARITIES}, got {granularity!r}"
        )
    matrix = np.zeros((index.n_workers, index.n_tasks), dtype=np.float64)
    if granularity == "task":
        for i, claims in enumerate(index.claims_by_worker):
            for j, value in claims.items():
                matrix[i, j] = posteriors[j].get(value, 0.0)
        return matrix

    for i, claims in enumerate(index.claims_by_worker):
        if not claims:
            continue
        mean = float(
            np.mean([posteriors[j].get(value, 0.0) for j, value in claims.items()])
        )
        for j in claims:
            matrix[i, j] = mean
    return matrix

