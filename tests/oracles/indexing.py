"""Scalar oracles for the index structures and the start of Alg. 1 (Sec. III-A).

- :func:`pairs` / :func:`shared_tasks` — the co-answering worker pairs
  and their shared tasks as Python containers, the scalar twins of the
  ``ClaimArrays`` pair tables; :class:`OracleIndex` exposes them as
  attributes of a :class:`~repro.core.indexing.DatasetIndex`.
- String-valued twins of :meth:`repro.core.indexing.ClaimArrays.majority_codes`
  and of the constant-ε start of the per-claim accuracies, in the dense
  ``n_workers x n_tasks`` shape the scalar step oracles consume.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.core.indexing import DatasetIndex

__all__ = [
    "OracleIndex",
    "initial_accuracy_matrix",
    "majority_vote",
    "pairs",
    "shared_tasks",
]


def pairs(index: DatasetIndex) -> list[tuple[int, int]]:
    """All worker pairs ``(a, b)`` with ``a < b`` sharing at least one task.

    Dependence is only defined (and only informative) for pairs that
    co-answered something, so step 1 iterates exactly this list.
    """
    seen: set[tuple[int, int]] = set()
    for claims in index.claims_by_task:
        members = sorted(claims)
        for x in range(len(members)):
            for y in range(x + 1, len(members)):
                seen.add((members[x], members[y]))
    return sorted(seen)


def shared_tasks(index: DatasetIndex) -> dict[tuple[int, int], tuple[int, ...]]:
    """``(a, b) -> task indexes answered by both`` for every pair."""
    shared: dict[tuple[int, int], list[int]] = {p: [] for p in pairs(index)}
    for j, claims in enumerate(index.claims_by_task):
        members = sorted(claims)
        for x in range(len(members)):
            for y in range(x + 1, len(members)):
                shared[(members[x], members[y])].append(j)
    return {p: tuple(ts) for p, ts in shared.items()}


class OracleIndex(DatasetIndex):
    """A :class:`DatasetIndex` with the scalar pair structures attached."""

    @cached_property
    def pairs(self) -> list[tuple[int, int]]:
        return pairs(self)

    @cached_property
    def shared_tasks(self) -> dict[tuple[int, int], tuple[int, ...]]:
        return shared_tasks(self)


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
