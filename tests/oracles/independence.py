"""Scalar oracle for step 2 of DATE: independence probabilities (Eq. 16).

A per-group transcription of the greedy ordering, kept as the
equivalence oracle for :func:`repro.core.engine.independence_flat`.

If worker ``i`` copied value ``v`` from someone, ``i``'s claim should
not count as independent support for ``v``.  Exactly enumerating every
dependence structure is exponential, so the paper orders the providers
of each value greedily and discounts each worker only against its
*predecessors* in the order:

    I_v^j(i) = Π_{i' before i} (1 - r · P(i → i' | D))          (Eq. 16)

Ordering (Sec. III-B): the first worker is the one with the highest
total dependence probability inside the group (so its likely copiers
get discounted against it); each subsequent pick is the remaining
worker with the maximal directed dependence on an already-selected
worker (Alg. 1 line 19).  The pseudocode's line 16 is OCR-ambiguous
(argmin); ``ordering="independent_first"`` provides that variant.

The ED baseline (:mod:`repro.baselines.enumerate_dependence`) replaces
this greedy prefix rule with explicit enumeration over co-providers.
"""

from __future__ import annotations

from repro.core.dependence import DependencePosterior
from repro.core.indexing import DatasetIndex

from .dependence import directed_probability, total_dependence

__all__ = [
    "IndependenceTable",
    "independence_probabilities",
    "independence_table",
    "order_value_group",
]

#: Independence maps: task index -> value -> {worker index: I_v^j(i)}.
IndependenceTable = list[dict[str, dict[int, float]]]

_ORDERINGS = ("dependent_first", "independent_first")


def order_value_group(
    group: tuple[int, ...],
    posteriors: dict[tuple[int, int], DependencePosterior],
    *,
    ordering: str = "dependent_first",
) -> list[int]:
    """Return the greedy processing order for one value group ``W_v^j``.

    Ties break on the worker index so a fixed dataset and seed always
    produce the same order.
    """
    if ordering not in _ORDERINGS:
        raise ValueError(f"ordering must be one of {_ORDERINGS}, got {ordering!r}")
    if len(group) <= 1:
        return list(group)

    totals = {
        i: sum(total_dependence(posteriors, i, other) for other in group if other != i)
        for i in group
    }
    if ordering == "dependent_first":
        first = max(group, key=lambda i: (totals[i], -i))
    else:
        first = min(group, key=lambda i: (totals[i], i))

    selected = [first]
    remaining = [i for i in group if i != first]
    while remaining:
        # Alg. 1 line 19: the remaining worker most likely to have copied
        # from someone already selected.
        def attachment(i: int) -> float:
            return max(directed_probability(posteriors, i, s) for s in selected)

        nxt = max(remaining, key=lambda i: (attachment(i), -i))
        selected.append(nxt)
        remaining.remove(nxt)
    return selected


_DISCOUNT_MODES = ("directed", "total")


def independence_probabilities(
    index: DatasetIndex,
    posteriors: dict[tuple[int, int], DependencePosterior],
    *,
    copy_prob_r: float,
    ordering: str = "dependent_first",
    discount_mode: str = "directed",
) -> IndependenceTable:
    """Compute ``I_v^j(i)`` for every task, value, and providing worker.

    A worker that is the only provider of a value (or the first in its
    group's order) has independence probability 1; later workers are
    discounted by Eq. 16 against each predecessor.

    ``discount_mode`` selects the dependence probability in the product:

    - ``"directed"`` (Eq. 16 as written): ``P(i → i' | D)`` — only the
      probability that *i copied from* the predecessor;
    - ``"total"``: ``P(i → i') + P(i' → i)`` — either direction.  When a
      copier reproduces its source verbatim the two workers' data is
      identical and the direction is unidentifiable (each direction's
      posterior caps near 0.5), so the directed discount can never
      exceed ``1 - r/2``; the total mode discounts the pair's shared
      value to a single effective vote, which is what recovering the
      Table 1 example requires (DESIGN.md §4).
    """
    if not 0.0 < copy_prob_r < 1.0:
        raise ValueError(f"copy_prob_r must be in (0, 1), got {copy_prob_r}")
    if discount_mode not in _DISCOUNT_MODES:
        raise ValueError(
            f"discount_mode must be one of {_DISCOUNT_MODES}, got {discount_mode!r}"
        )
    table: IndependenceTable = []
    for j in range(index.n_tasks):
        per_value: dict[str, dict[int, float]] = {}
        for value, group in index.value_groups[j].items():
            order = order_value_group(group, posteriors, ordering=ordering)
            scores: dict[int, float] = {}
            for position, worker in enumerate(order):
                independence = 1.0
                for predecessor in order[:position]:
                    if discount_mode == "directed":
                        dep = directed_probability(posteriors, worker, predecessor)
                    else:
                        dep = total_dependence(posteriors, worker, predecessor)
                    independence *= 1.0 - copy_prob_r * dep
                scores[worker] = independence
            per_value[value] = scores
        table.append(per_value)
    return table


def independence_table(arrays, indep) -> IndependenceTable:
    """Flat per-claim independence (engine output) -> the table shape."""
    table: IndependenceTable = []
    for j in range(arrays.index.n_tasks):
        g0, g1 = int(arrays.task_group_ptr[j]), int(arrays.task_group_ptr[j + 1])
        per_value: dict[str, dict[int, float]] = {}
        for g in range(g0, g1):
            c0, c1 = int(arrays.group_ptr[g]), int(arrays.group_ptr[g + 1])
            per_value[arrays.group_values[g]] = {
                int(arrays.claim_worker[c]): float(indep[c]) for c in range(c0, c1)
            }
        table.append(per_value)
    return table
