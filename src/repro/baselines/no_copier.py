"""NC — the No-Copier baseline (Sec. VII-A).

NC assumes every worker is independent, so all dependence machinery is
skipped: it iterates only step 3 of DATE (Bayesian value posteriors and
accuracy refinement, Eqs. 17-20) with every independence probability
fixed at 1.  Against data with copiers it inherits MV's weakness in a
softer form — copied claims still accrue full support — which is why
the paper reports DATE beating NC by ~7.4% precision on average.
"""

from __future__ import annotations

import numpy as np

from ..core.config import DateConfig
from ..core.date import TruthDiscoveryResult, build_result, iterate_truths
from ..core.engine import (
    accuracy_flat,
    dense_accuracy,
    plain_posterior_groups,
    posterior_table,
    select_truth_codes,
    support_flat,
    support_table,
)
from ..core.indexing import DatasetIndex
from ..types import Dataset

__all__ = ["NoCopier"]


class NoCopier:
    """Accuracy-only iterative truth discovery (step 3 of DATE)."""

    method_name = "NC"

    def __init__(self, config: DateConfig | None = None):
        self.config = config or DateConfig()

    def run(
        self, dataset: Dataset, *, index: DatasetIndex | None = None
    ) -> TruthDiscoveryResult:
        """Iterate posterior/accuracy refinement without dependence."""
        index = index or DatasetIndex(dataset)
        return self._run(index)

    def _run(self, index: DatasetIndex) -> TruthDiscoveryResult:
        cfg = self.config
        arrays = index.arrays
        cfg.false_values.prepare(index)

        truth_codes = arrays.majority_codes()
        claim_acc = np.full(arrays.n_claims, cfg.initial_accuracy, dtype=np.float64)
        ones = np.ones(arrays.n_claims, dtype=np.float64)

        group_post = None
        group_support = None

        def step(truth_codes):
            nonlocal group_post, group_support, claim_acc
            group_post = plain_posterior_groups(
                arrays,
                claim_acc,
                false_values=cfg.false_values,
                accuracy_clamp=cfg.accuracy_clamp,
            )
            claim_acc = accuracy_flat(
                arrays, group_post, granularity=cfg.granularity
            )
            group_support = support_flat(
                arrays,
                claim_acc,
                ones,
                similarity=cfg.similarity,
                similarity_weight=cfg.similarity_weight,
            )
            return select_truth_codes(arrays, group_support)

        truth_codes, iterations, converged = iterate_truths(
            truth_codes,
            step,
            max_iterations=cfg.max_iterations,
            state_key=lambda codes: codes.tobytes(),
            label="NC",
        )
        return build_result(
            index,
            arrays.truth_values(truth_codes),
            dense_accuracy(arrays, claim_acc),
            posterior_table(arrays, group_post) if group_post is not None else [],
            support_table(arrays, group_support)
            if group_support is not None
            else [],
            dependence={},
            iterations=iterations,
            converged=converged,
            method=self.method_name,
        )
