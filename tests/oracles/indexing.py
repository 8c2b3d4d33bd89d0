"""Scalar oracles for the starting point of Alg. 1 (Sec. III-A).

String-valued twins of :meth:`repro.core.indexing.ClaimArrays.majority_codes`
and of the constant-ε start of the per-claim accuracies, in the dense
``n_workers x n_tasks`` shape the scalar step oracles consume.
"""

from __future__ import annotations

import numpy as np

from repro.core.indexing import DatasetIndex

__all__ = ["initial_accuracy_matrix", "majority_vote"]


def initial_accuracy_matrix(index: DatasetIndex, epsilon: float) -> np.ndarray:
    """Dense ``n_workers x n_tasks`` accuracy matrix initialized to ε.

    Entries for (worker, task) pairs without a claim are 0: a worker
    that did not answer a task contributes no accuracy to it (and no
    coverage in the auction stage).
    """
    matrix = np.zeros((index.n_workers, index.n_tasks), dtype=np.float64)
    for i, claims in enumerate(index.claims_by_worker):
        for j in claims:
            matrix[i, j] = epsilon
    return matrix


def majority_vote(index: DatasetIndex) -> list[str | None]:
    """Per-task majority value (``None`` for unanswered tasks).

    Ties break lexicographically on the value so results are
    deterministic.  This is DATE's initial truth estimate (Sec. III-A:
    "the true value can be obtained through the voting mechanism ...
    initially").
    """
    winners: list[str | None] = []
    for j in range(index.n_tasks):
        groups = index.value_groups[j]
        if not groups:
            winners.append(None)
            continue
        # One pass: largest count wins, count ties go to the
        # lexicographically smallest value.
        best = min(groups.items(), key=lambda item: (-len(item[1]), item[0]))
        winners.append(best[0])
    return winners
