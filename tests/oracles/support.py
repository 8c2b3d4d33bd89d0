"""Scalar oracle for step 3 of DATE (part 2): support and truth selection.

Kept as the equivalence oracle for :func:`repro.core.engine.support_flat`
and :func:`repro.core.engine.select_truth_codes`.

The support count of value ``v`` for task ``t_j`` (Alg. 1 line 28) is
the accuracy-weighted, dependence-discounted vote mass

    sc_j(v) = Σ_{i ∈ W_v^j} A_i^j · I_v^j(i)

and the estimated truth is the value with the largest support count.

Section IV-A (Eq. 21) adds cross-value support when different surface
strings mean the same thing (abbreviations, typos):

    sc'_j(v) = sc_j(v) + ρ · Σ_{v' ≠ v} sim(v, v') ·
               Σ_{i ∈ W_{v'} \\ W_v} A_i^j · I_{v'}^j(i)

with ``sim`` a similarity in [0, 1] and ``ρ`` the influence weight.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SimilarityFn
from repro.core.indexing import DatasetIndex

from .independence import IndependenceTable

__all__ = ["support_counts", "select_truths"]

#: Support tables: task index -> {value: support count}.
SupportTable = list[dict[str, float]]


def support_counts(
    index: DatasetIndex,
    accuracy: np.ndarray,
    independence: IndependenceTable,
    *,
    similarity: SimilarityFn | None = None,
    similarity_weight: float = 0.0,
) -> SupportTable:
    """Compute (optionally similarity-adjusted) support counts per task.

    ``similarity`` activates the Sec. IV-A adjustment with weight
    ``similarity_weight`` (the paper's ρ).  Passing a similarity with a
    zero weight is allowed and leaves the base counts unchanged.
    """
    if similarity is not None and not 0.0 <= similarity_weight <= 1.0:
        raise ValueError(
            f"similarity_weight must be in [0, 1], got {similarity_weight}"
        )
    table: SupportTable = []
    for j in range(index.n_tasks):
        groups = index.value_groups[j]
        base: dict[str, float] = {}
        for value, group in groups.items():
            scores = independence[j][value]
            base[value] = float(
                sum(accuracy[i, j] * scores[i] for i in group)
            )
        if similarity is None or similarity_weight == 0.0 or len(base) <= 1:
            table.append(base)
            continue
        adjusted: dict[str, float] = {}
        for value, group in groups.items():
            bonus = 0.0
            members = set(group)
            for other_value, other_group in groups.items():
                if other_value == value:
                    continue
                sim = similarity(value, other_value)
                if sim <= 0.0:
                    continue
                outside = [i for i in other_group if i not in members]
                if not outside:
                    continue
                other_scores = independence[j][other_value]
                mass = sum(accuracy[i, j] * other_scores[i] for i in outside)
                bonus += sim * mass
            adjusted[value] = base[value] + similarity_weight * bonus
        table.append(adjusted)
    return table


def select_truths(support: SupportTable) -> list[str | None]:
    """Pick the value with maximal support per task (lexicographic ties).

    Tasks with no claims yield ``None``.
    """
    truths: list[str | None] = []
    for counts in support:
        if not counts:
            truths.append(None)
            continue
        best_score = max(counts.values())
        candidates = [v for v, s in counts.items() if s == best_score]
        truths.append(min(candidates))
    return truths
