"""Scalar oracle for step 1 of DATE: pairwise dependence (Eqs. 7-15).

A per-pair, per-shared-task transcription of the equations, kept as
the equivalence oracle for
:func:`repro.core.engine.pairwise_dependence_arrays`.

The hypotheses, evidence partition and prior split are documented in
:mod:`repro.core.dependence`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.core.dependence import DependencePosterior
from repro.core.falsedist import FalseValueDistribution, UniformFalseValues
from repro.core.indexing import DatasetIndex

__all__ = [
    "compute_pairwise_dependence",
    "directed_matrix",
    "directed_probability",
    "total_dependence",
]

# Likelihood terms are clamped away from 0 so a single impossible-looking
# observation cannot produce -inf log likelihoods.
_MIN_PROB = 1e-12


def _log(x: float) -> float:
    return math.log(max(x, _MIN_PROB))


def compute_pairwise_dependence(
    index: DatasetIndex,
    truths: Sequence[str | None],
    accuracy: np.ndarray,
    *,
    copy_prob_r: float,
    prior_alpha: float,
    false_values: FalseValueDistribution | None = None,
    accuracy_clamp: tuple[float, float] = (0.01, 0.99),
) -> dict[tuple[int, int], DependencePosterior]:
    """Compute dependence posteriors for all co-answering pairs.

    Parameters
    ----------
    index:
        Prebuilt dataset index.
    truths:
        Current per-task truth estimates (task-index order); used to
        split shared tasks into ``T_s`` and ``T_f``.
    accuracy:
        Dense ``n_workers x n_tasks`` accuracy matrix (current ``A``).
    copy_prob_r:
        The assumed probability ``r`` that a copied worker's value is
        copied rather than independently produced.
    prior_alpha:
        Total prior probability ``α`` of dependence for a pair.
    false_values:
        False-value distribution model; defaults to the paper's uniform
        assumption.
    accuracy_clamp:
        Accuracies are clamped into this open interval before use so
        the likelihoods stay finite.

    Returns
    -------
    dict
        ``(a, b) -> DependencePosterior`` with ``a < b``, covering
        exactly ``index.pairs``.
    """
    if not 0.0 < copy_prob_r < 1.0:
        raise ValueError(f"copy_prob_r must be in (0, 1), got {copy_prob_r}")
    if not 0.0 < prior_alpha < 1.0:
        raise ValueError(f"prior_alpha must be in (0, 1), got {prior_alpha}")
    false_values = false_values or UniformFalseValues()
    lo, hi = accuracy_clamp

    r = copy_prob_r
    log_prior_dep = math.log(prior_alpha / 2.0)
    log_prior_ind = math.log(1.0 - prior_alpha)

    # Collision probabilities are truth-independent per task; cache them.
    collision = [
        false_values.collision_probability(j, index) for j in range(index.n_tasks)
    ]

    posteriors: dict[tuple[int, int], DependencePosterior] = {}
    claims = index.claims_by_worker
    for (a, b), shared in index.shared_tasks.items():
        log_ind = 0.0  # log P(D | a ⊥ b)
        log_ab = 0.0  # log P(D | a → b)
        log_ba = 0.0  # log P(D | b → a)
        claims_a = claims[a]
        claims_b = claims[b]
        for j in shared:
            value_a = claims_a[j]
            value_b = claims_b[j]
            acc_a = min(max(accuracy[a, j], lo), hi)
            acc_b = min(max(accuracy[b, j], lo), hi)
            if value_a == value_b:
                if value_a == truths[j]:
                    # T_s: same true value (Eqs. 7, 11).
                    p_same = acc_a * acc_b
                    src_a = acc_a  # quality of the copied value under b→a
                    src_b = acc_b  # ... and under a→b
                else:
                    # T_f: same false value (Eqs. 8, 12, 22).
                    p_same = (1.0 - acc_a) * (1.0 - acc_b) * collision[j]
                    src_a = 1.0 - acc_a
                    src_b = 1.0 - acc_b
                log_ind += _log(p_same)
                log_ab += _log(src_b * r + p_same * (1.0 - r))
                log_ba += _log(src_a * r + p_same * (1.0 - r))
            else:
                # T_d: different values (Eqs. 9, 13): P_d = 1 - P_s - P_f.
                p_same_true = acc_a * acc_b
                p_same_false = (1.0 - acc_a) * (1.0 - acc_b) * collision[j]
                p_diff = max(1.0 - p_same_true - p_same_false, _MIN_PROB)
                log_ind += _log(p_diff)
                log_diff_dep = _log(p_diff * (1.0 - r))
                log_ab += log_diff_dep
                log_ba += log_diff_dep
        # Bayes over the three hypotheses, normalized in log space.
        score_ind = log_prior_ind + log_ind
        score_ab = log_prior_dep + log_ab
        score_ba = log_prior_dep + log_ba
        peak = max(score_ind, score_ab, score_ba)
        w_ind = math.exp(score_ind - peak)
        w_ab = math.exp(score_ab - peak)
        w_ba = math.exp(score_ba - peak)
        total = w_ind + w_ab + w_ba
        posteriors[(a, b)] = DependencePosterior(
            p_a_to_b=w_ab / total,
            p_b_to_a=w_ba / total,
        )
    return posteriors


def directed_probability(
    posteriors: dict[tuple[int, int], DependencePosterior],
    copier: int,
    source: int,
) -> float:
    """``P(copier → source | D)`` from a posterior table, 0 if the pair never met."""
    if copier == source:
        return 0.0
    if copier < source:
        entry = posteriors.get((copier, source))
        return entry.p_a_to_b if entry is not None else 0.0
    entry = posteriors.get((source, copier))
    return entry.p_b_to_a if entry is not None else 0.0


def total_dependence(
    posteriors: dict[tuple[int, int], DependencePosterior],
    a: int,
    b: int,
) -> float:
    """``P(a→b | D) + P(b→a | D)``, 0 if the pair never met."""
    key = (a, b) if a < b else (b, a)
    entry = posteriors.get(key)
    return entry.p_dependent if entry is not None else 0.0


def directed_matrix(arrays, dependence) -> np.ndarray:
    """Dense ``D[i, k] = P(i -> k | D)`` from engine arrays (0 where unset).

    O(n_workers²) memory: the dense reference for
    :class:`repro.core.engine.DirectedDependenceLookup`.
    """
    n = arrays.index.n_workers
    matrix = np.zeros((n, n), dtype=np.float64)
    matrix[arrays.pair_a, arrays.pair_b] = dependence.p_ab
    matrix[arrays.pair_b, arrays.pair_a] = dependence.p_ba
    return matrix
