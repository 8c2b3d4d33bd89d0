"""Zoo adapters over the pre-existing engines (DATE, MV, NC, ED).

Each adapter delegates verbatim to the engine's own ``run`` path on the
adapter's index, so results are **bit-identical** to calling the engine
directly — pinned by ``tests/unit/test_discovery_differential.py``.
The adapters add only the uniform :class:`~repro.discovery.protocol.
TruthDiscoverer` surface: an array-native ``fit`` and a ledger
fingerprint.

``MajorityVote`` and ``NoCopier`` have no warm-start path; their
adapters accept and ignore ``warm_start`` (a one-shot vote has nothing
to warm).  Every result is array-native and decodes its tables only
when read, so there is no cheaper result variant to ask for.
"""

from __future__ import annotations

from typing import Any

from ..baselines import EnumerateDependence, MajorityVote, NoCopier
from ..core.config import DateConfig
from ..core.date import DATE, TruthDiscoveryResult
from ..core.indexing import ClaimArrays
from .protocol import DiscovererBase

__all__ = [
    "DateAdapter",
    "EnumerateDependenceAdapter",
    "MajorityVoteAdapter",
    "NoCopierAdapter",
]


class DateAdapter(DiscovererBase):
    """DATE (paper Alg. 1) behind the zoo interface."""

    method_name = "DATE"
    _engine_cls = DATE

    def __init__(self, config: DateConfig | None = None):
        self.config = config or DateConfig()
        self._engine = self._engine_cls(self.config)

    def __fingerprint__(self) -> Any:
        return {"date": self.config}

    def fit(
        self,
        arrays: ClaimArrays,
        *,
        warm_start: TruthDiscoveryResult | None = None,
    ) -> TruthDiscoveryResult:
        index = arrays.index
        return self._engine.run(index.dataset, index=index, warm_start=warm_start)

    def run(self, dataset, *, index=None, warm_start=None):
        # Delegate dataset-level calls directly so the engine builds (or
        # reuses) the index exactly as a pre-interface call would.
        return self._engine.run(dataset, index=index, warm_start=warm_start)


class EnumerateDependenceAdapter(DateAdapter):
    """ED — DATE with exact dependence enumeration — behind the zoo."""

    method_name = "ED"
    _engine_cls = EnumerateDependence

    def __fingerprint__(self) -> Any:
        return {
            "date": self.config,
            "exact_enumeration_limit": self._engine.exact_enumeration_limit,
        }


class MajorityVoteAdapter(DiscovererBase):
    """One-shot majority voting behind the zoo interface."""

    method_name = "MV"

    def __init__(self):
        self._engine = MajorityVote()

    def __fingerprint__(self) -> Any:
        return {}

    def fit(
        self,
        arrays: ClaimArrays,
        *,
        warm_start: TruthDiscoveryResult | None = None,
    ) -> TruthDiscoveryResult:
        index = arrays.index
        return self._engine.run(index.dataset, index=index)

    def run(self, dataset, *, index=None, warm_start=None):
        return self._engine.run(dataset, index=index)


class NoCopierAdapter(DiscovererBase):
    """NC — accuracy-only iteration — behind the zoo interface."""

    method_name = "NC"

    def __init__(self, config: DateConfig | None = None):
        self.config = config or DateConfig()
        self._engine = NoCopier(self.config)

    def __fingerprint__(self) -> Any:
        return {"date": self.config}

    def fit(
        self,
        arrays: ClaimArrays,
        *,
        warm_start: TruthDiscoveryResult | None = None,
    ) -> TruthDiscoveryResult:
        index = arrays.index
        return self._engine.run(index.dataset, index=index)

    def run(self, dataset, *, index=None, warm_start=None):
        return self._engine.run(dataset, index=index)
