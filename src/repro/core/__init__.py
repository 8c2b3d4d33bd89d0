"""The paper's primary contribution: DATE truth discovery (Alg. 1).

- :mod:`repro.core.indexing` — integer-indexed dataset views and the
  flattened, integer-coded claim arrays
  (:class:`~repro.core.indexing.ClaimArrays`) every kernel runs on
  (DESIGN.md §7);
- :mod:`repro.core.engine` — the kernels, one per step of the
  algorithm: pairwise copier detection (Eqs. 7-15), per-value
  independence via the greedy ordering (Eq. 16), value posteriors and
  worker accuracies (Eqs. 17-20), and dependence-discounted support
  with the similarity adjustment of Sec. IV-A (Eq. 21, Alg. 1 line 28);
- :mod:`repro.core.dependence` — the per-pair dependence posterior
  results carry;
- :mod:`repro.core.falsedist` — false-value distribution models,
  including the non-uniform generalization of Sec. IV-B (Eqs. 22-23);
- :mod:`repro.core.config` — :class:`DateConfig`, the algorithm's
  hyperparameters;
- :mod:`repro.core.date` — the iterative driver (Alg. 1).

Each kernel has exactly one implementation here.  Scalar per-element
transcriptions of the equations live in ``tests/oracles/`` and serve
only as equivalence oracles for the test suite.
"""

from .config import DateConfig
from .date import DATE, TruthDiscoveryResult, discover_truth
from .dependence import DependencePosterior
from .engine import DependenceArrays
from .falsedist import (
    EmpiricalFalseValues,
    FalseValueDistribution,
    UniformFalseValues,
    ZipfFalseValues,
)
from .indexing import ClaimArrays, DatasetIndex

__all__ = [
    "DATE",
    "ClaimArrays",
    "DateConfig",
    "DatasetIndex",
    "DependenceArrays",
    "DependencePosterior",
    "EmpiricalFalseValues",
    "FalseValueDistribution",
    "TruthDiscoveryResult",
    "UniformFalseValues",
    "ZipfFalseValues",
    "discover_truth",
]
