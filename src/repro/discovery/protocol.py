"""The ``TruthDiscoverer`` contract every zoo member satisfies.

A truth-discovery algorithm is anything that maps the integer-coded
claim encoding (:class:`~repro.core.indexing.ClaimArrays`) to a
:class:`~repro.core.date.TruthDiscoveryResult`:

- ``fit(arrays, *, warm_start=None)`` — the array-native entry point.
  ``warm_start`` carries a previous result whose truths and worker
  reputations may seed the iteration (algorithms without a warm path
  accept and ignore it).  The result holds the run's arrays and decodes
  its string-keyed tables only when they are read.
- ``run(dataset, *, index=None, ...)`` — dataset-level convenience
  shared with the existing engines, so experiment code can treat DATE
  and any zoo member uniformly.
- ``__fingerprint__()`` — the algorithm's content identity (class +
  configuration + seed) for the run ledger: two discoverers with equal
  fingerprints compute bit-identical results on equal inputs.

Membership in the zoo is enforced by the conformance suite
(``tests/unit/test_discovery_conformance.py``): permutation
equivariance, unanimity agreement, seed determinism, telemetry
bit-identity, and lossless ledger round-trips.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

from ..core.date import TruthDiscoveryResult
from ..core.indexing import ClaimArrays, DatasetIndex
from ..types import Dataset

__all__ = ["DiscovererBase", "TruthDiscoverer"]


@runtime_checkable
class TruthDiscoverer(Protocol):
    """Structural type of a zoo member (see the module docstring)."""

    method_name: str

    def fit(
        self,
        arrays: ClaimArrays,
        *,
        warm_start: TruthDiscoveryResult | None = None,
    ) -> TruthDiscoveryResult: ...

    def run(
        self,
        dataset: Dataset,
        *,
        index: DatasetIndex | None = None,
        warm_start: TruthDiscoveryResult | None = None,
    ) -> TruthDiscoveryResult: ...

    def __fingerprint__(self) -> Any: ...


class DiscovererBase:
    """Dataset-level glue shared by every concrete zoo member.

    Subclasses implement :meth:`fit` over :class:`ClaimArrays`;
    :meth:`run` mirrors the existing engines' signature so call sites
    that hold a :class:`Dataset` (experiments, streaming, the CLI) need
    no adapter of their own.
    """

    method_name = "?"

    def fit(
        self,
        arrays: ClaimArrays,
        *,
        warm_start: TruthDiscoveryResult | None = None,
    ) -> TruthDiscoveryResult:
        raise NotImplementedError

    def run(
        self,
        dataset: Dataset,
        *,
        index: DatasetIndex | None = None,
        warm_start: TruthDiscoveryResult | None = None,
    ) -> TruthDiscoveryResult:
        if index is None:
            index = DatasetIndex(dataset)
        return self.fit(index.arrays, warm_start=warm_start)

    def __fingerprint__(self) -> Any:  # pragma: no cover - overridden
        raise NotImplementedError
